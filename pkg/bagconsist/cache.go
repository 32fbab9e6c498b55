package bagconsist

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"bagconsistency/internal/bag"
	"bagconsistency/internal/cache"
	"bagconsistency/internal/canon"
	"bagconsistency/internal/table"
	"bagconsistency/internal/trace"
)

// Cache is a shared result cache for Checkers: a sharded LRU keyed by
// canonical instance fingerprints plus the options that shaped the
// result, with singleflight coalescing of concurrent identical queries.
// It holds CheckGlobal results; CheckPair's marginal test is cheaper than
// a fingerprint and never reaches it.
//
// Because keys are canonical fingerprints (internal/canon), a hit does not
// require byte-identical input: any instance equal to a cached one up to
// tuple order and consistent per-attribute value renaming hits, and its
// witness is translated into the new instance's own values. One Cache may
// back any number of Checkers — and should, since the fingerprint keys
// embed each Checker's options, so differently configured Checkers never
// cross-contaminate.
//
// A Cache may additionally be backed by a persistent Store (WithStore),
// making it a two-tier cache: a RAM miss consults the disk tier, a disk
// hit is promoted into RAM, and freshly computed results are written
// through to disk — so the memo table survives restarts. Attach the
// store before the Cache starts serving; the attachment itself is
// atomic, but queries racing the attachment may miss the disk tier.
type Cache struct {
	lru    *cache.Cache
	flight cache.Group
	disk   atomic.Pointer[Store]
}

// CacheStats is a point-in-time snapshot of cache effectiveness; see
// Cache.Stats.
type CacheStats = cache.Stats

// NewCache returns a cache holding at most size results (size < 1 is
// clamped up to the minimum striped capacity).
func NewCache(size int) *Cache {
	return &Cache{lru: cache.New(size)}
}

// Stats returns hit/miss/eviction counters and current occupancy.
func (c *Cache) Stats() CacheStats { return c.lru.Stats() }

// Len returns the number of cached results.
func (c *Cache) Len() int { return c.lru.Len() }

// Purge drops every cached result from the RAM tier, keeping lifetime
// counters. The disk tier, if any, is untouched: purged results are
// re-served from disk on their next query.
func (c *Cache) Purge() { c.lru.Purge() }

// attachStore wires the disk tier under the LRU.
func (c *Cache) attachStore(s *Store) { c.disk.Store(s) }

// Persistent reports whether a disk tier is attached.
func (c *Cache) Persistent() bool { return c.disk.Load() != nil }

// StoreStats returns the disk tier's statistics, and false when the
// cache has no persistent store attached.
func (c *Cache) StoreStats() (StoreStats, bool) {
	s := c.disk.Load()
	if s == nil {
		return StoreStats{}, false
	}
	return s.Stats(), true
}

// diskGet consults the disk tier for (options, fingerprint) and decodes
// the stored canonical result. A payload that fails to decode (a foreign
// or future record) is treated as a miss.
func (c *Cache) diskGet(optsKey string, fp canon.Fingerprint) (*cachedResult, bool) {
	s := c.disk.Load()
	if s == nil {
		return nil, false
	}
	payload, ok := s.st.Get(storeKey(optsKey, fp))
	if !ok {
		return nil, false
	}
	cr, err := decodePayload(payload)
	if err != nil {
		return nil, false
	}
	return cr, true
}

// diskPut writes a freshly computed canonical result through to the disk
// tier. Write-through is best-effort: an IO failure costs durability of
// one result (counted in StoreStats.PutErrors), never the query.
func (c *Cache) diskPut(optsKey string, fp canon.Fingerprint, cr *cachedResult) {
	s := c.disk.Load()
	if s == nil {
		return
	}
	_ = s.st.Put(storeKey(optsKey, fp), encodePayload(cr))
}

// cachedRow is one witness support tuple in canonical index space.
type cachedRow struct {
	indices []int
	count   int64
}

// cachedResult is a Report in renaming-independent form: scalar fields
// verbatim, the witness as canonical index vectors to be re-expressed in
// each hitting instance's values.
type cachedResult struct {
	consistent     bool
	method         string
	bags           int
	nodes          int64
	witnessSupport int
	witnessAttrs   []string // nil when the result carries no witness
	witnessRows    []cachedRow
}

// encodeCached converts a freshly computed Report into canonical form
// using the canonicalization of the instance that produced it, keeping
// the witness rows in the Report's display order. Each witness value maps
// to its canonical index by one array load (indexOfID).
func encodeCached(rep *Report, can *canon.Canonical) (*cachedResult, error) {
	cr := &cachedResult{
		consistent:     rep.Consistent,
		method:         rep.Method,
		bags:           rep.Bags,
		nodes:          rep.Nodes,
		witnessSupport: rep.WitnessSupport,
	}
	w := rep.Witness
	if w == nil {
		return cr, nil
	}
	if w.b == nil { // decoded from JSON
		b, err := w.Bag()
		if err != nil {
			return nil, err
		}
		w = newWitness(b)
	}
	v := w.b.View()
	inv := make([][]int32, len(w.Attrs))
	for j, a := range w.Attrs {
		inv[j] = indexOfID(can, a, v.Cols[j])
	}
	cr.witnessAttrs = w.Attrs
	cr.witnessRows = make([]cachedRow, len(w.order))
	flat := make([]int, len(w.order)*len(inv))
	for k, pos := range w.order {
		idx := flat[k*len(inv) : (k+1)*len(inv) : (k+1)*len(inv)]
		for j, id := range v.Rows.Row(int(pos)) {
			if idx[j] = int(inv[j][id]) - 1; idx[j] < 0 {
				return nil, fmt.Errorf("bagconsist: witness value %q not in the instance's %q column", v.Cols[j].Value(id), w.Attrs[j])
			}
		}
		cr.witnessRows[k] = cachedRow{indices: idx, count: v.Rows.Counts[pos]}
	}
	return cr, nil
}

// indexOfID returns the table from ids in d, a witness column's
// dictionary for attr, to attr's canonical index plus one: the inverse of
// can.IDs, composed with table.Remap where d is not attr's home. Every
// witness value is held by the rows over the home, so 0 marks a value no
// witness of the instance holds.
func indexOfID(can *canon.Canonical, attr string, d *table.Dict) []int32 {
	home, ids := can.IDs(attr)
	var toD []uint32
	if home != nil && d != home {
		toD = table.Remap(home, d)
	}
	inv := make([]int32, d.Len()) // after Remap: d may grow, never shrink
	for x, id := range ids {
		if id != table.MissingID && toD != nil {
			id = toD[id]
		}
		if id != table.MissingID {
			inv[id] = int32(x + 1)
		}
	}
	return inv
}

// report materializes the cached result for an instance with the given
// canonicalization, rebuilding the witness over that instance's own
// dictionaries.
func (cr *cachedResult) report(can *canon.Canonical, elapsed time.Duration) (*Report, error) {
	rep := &Report{
		Consistent:     cr.consistent,
		Method:         cr.method,
		Bags:           cr.bags,
		Nodes:          cr.nodes,
		WitnessSupport: cr.witnessSupport,
		CacheHit:       true,
		Elapsed:        elapsed,
	}
	if cr.witnessAttrs != nil {
		w, err := cr.witness(can)
		if err != nil {
			return nil, err
		}
		rep.Witness = newWitness(w)
	}
	return rep, nil
}

// witness rebuilds the cached witness in id space: each canonical index
// becomes an id in the instance's dictionary for its attribute by one
// array load. It keeps the checks string translation made: every index
// in range, counts non-negative, zero counts dropped, repeated rows
// summed.
func (cr *cachedResult) witness(can *canon.Canonical) (*bag.Bag, error) {
	attrs := cr.witnessAttrs
	s, err := bag.NewSchema(attrs...)
	if err != nil {
		return nil, err
	}
	cols := make([]*table.Dict, len(attrs))
	ids := make([][]uint32, len(attrs))
	for j, a := range attrs {
		cols[j], ids[j] = can.IDs(a)
		if cols[j] == nil {
			cols[j] = table.NewDict() // no values: any row is out of range
		}
	}
	w, err := bag.NewShared(s, cols, len(cr.witnessRows))
	if err != nil {
		return nil, err
	}
	row := make([]uint32, len(attrs))
	for _, r := range cr.witnessRows {
		if len(r.indices) != len(attrs) {
			return nil, fmt.Errorf("bagconsist: cached witness row has %d indices for %d attributes", len(r.indices), len(attrs))
		}
		for j, x := range r.indices {
			if x < 0 || x >= len(ids[j]) {
				return nil, fmt.Errorf("bagconsist: cached witness index %d out of range for attribute %q (%d values)", x, attrs[j], len(ids[j]))
			}
			if row[j] = ids[j][x]; row[j] == table.MissingID && r.count > 0 {
				return nil, fmt.Errorf("bagconsist: cached witness index %d of attribute %q is not in the instance's dictionary", x, attrs[j])
			}
		}
		if err := w.AddIDs(row, r.count); err != nil {
			return nil, err
		}
	}
	return w, nil
}

// optionsKey is the per-Checker component of every cache key: two
// Checkers share results only when every knob that can change a Report
// agrees. Parallelism is excluded — it shapes scheduling and wall time,
// never a verdict or witness validity. The key is byte-for-byte what
// earlier releases wrote, so persisted stores keep hitting: the retired
// method, LP-bound, branch-order and witness-minimization knobs stay in
// it as the literals "m0", "lpfalse", "blfalse" and "wmtrue". See
// docs/STORAGE.md for the answers that carry an older Report.Method.
func (c config) optionsKey() string {
	return fmt.Sprintf("m0|n%d|lpfalse|blfalse|wmtrue", c.maxNodes)
}

// cachedCheck is the lookup/compute/coalesce path behind CheckGlobal:
// bags is the instance, compute runs the uncached check. Keys and
// observations carry the kind "global", the one kind cached.
func (c *Checker) cachedCheck(ctx context.Context, bags []*bag.Bag, compute func(context.Context) (*Report, error)) (*Report, error) {
	start := time.Now()
	// Cached and uncached paths must agree on cancellation: a hit must
	// not mask an already-dead context.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	_, fpSpan := trace.Start(ctx, trace.SpanFingerprint)
	can, err := canon.Bags(bags)
	fpSpan.End()
	if err != nil {
		// Canonicalization failing (nil bag, empty instance) means the
		// underlying query will produce the authoritative error.
		return compute(ctx)
	}
	// The fingerprint names the instance in slow-query captures.
	fp := can.FP.String()
	trace.SpanFromContext(ctx).SetAttr("fp", fp)
	optsKey := c.cfg.optionsKey()
	key := "global|" + optsKey + "|" + fp
	_, ramSpan := trace.Start(ctx, trace.SpanCacheRAM)
	v, ok := c.cfg.cache.lru.Get(key)
	if ok {
		ramSpan.SetAttr("outcome", "hit")
		ramSpan.End()
		c.observeCheck(ctx, fp, true)
		return v.(*cachedResult).report(can, time.Since(start))
	}
	ramSpan.SetAttr("outcome", "miss")
	ramSpan.End()

	// RAM miss: singleflight everything slower than the LRU — the disk
	// probe as much as the computation. After a restart, N concurrent
	// requests for one fingerprint then cost one disk read and one
	// payload decode, not N (the warm-start stampede this tier exists
	// for). The leader returns its direct Report when it computed (no
	// translation round trip); followers translate the canonical result
	// into their own instance's values.
	var direct *Report
	v, shared, err := c.cfg.cache.flight.Do(ctx, key, func() (any, error) {
		// Re-check the LRU now that this caller holds key leadership: a
		// previous leader may have stored the result between this
		// caller's Get miss and its Do registration. Without this
		// re-check that window would elect a second leader and recompute.
		// (The disk tier needs no re-check: every leader that stored to
		// disk stored to the LRU in the same step.)
		if v, ok := c.cfg.cache.lru.Recheck(key); ok {
			return v, nil
		}
		// A restart-surviving result may be on disk. A disk hit is
		// promoted into the LRU so the fingerprint's next query is a RAM
		// hit.
		if c.cfg.cache.Persistent() {
			_, diskSpan := trace.Start(ctx, trace.SpanCacheStore)
			cr, ok := c.cfg.cache.diskGet(optsKey, can.FP)
			if ok {
				diskSpan.SetAttr("outcome", "hit-promoted")
				diskSpan.End()
				c.cfg.cache.lru.Add(key, cr)
				return cr, nil
			}
			diskSpan.SetAttr("outcome", "miss")
			diskSpan.End()
		}
		cctx, computeSpan := trace.Start(ctx, trace.SpanCompute)
		rep, cerr := compute(cctx)
		computeSpan.End()
		if cerr != nil {
			return nil, cerr
		}
		cr, cerr := encodeCached(rep, can)
		if cerr != nil {
			return nil, cerr
		}
		c.cfg.cache.lru.Add(key, cr)
		c.cfg.cache.diskPut(optsKey, can.FP, cr)
		direct = rep
		return cr, nil
	})
	if err != nil {
		return nil, err
	}
	if shared {
		// Served by another caller's in-flight computation: a cache win
		// that never touched the LRU's hit counter.
		c.cfg.cache.lru.RecordCoalesced()
	}
	if !shared && direct != nil {
		// This caller's own computation: the one non-hit outcome.
		c.observeCheck(ctx, fp, false)
		return direct, nil
	}
	// Coalesced follower, leader LRU re-check, or disk promotion — all
	// served without computing for this caller.
	c.observeCheck(ctx, fp, true)
	return v.(*cachedResult).report(can, time.Since(start))
}

// observeCheck notifies the configured telemetry observer, if any.
func (c *Checker) observeCheck(ctx context.Context, fp string, cacheHit bool) {
	if c.cfg.observer != nil {
		c.cfg.observer(ctx, "global", fp, cacheHit)
	}
}
