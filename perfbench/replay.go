package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"bagconsistency/internal/bag"
	"bagconsistency/internal/bagio"
	"bagconsistency/internal/canon"
	"bagconsistency/internal/core"
	"bagconsistency/internal/ilp"
	"bagconsistency/internal/telemetry"
	"bagconsistency/pkg/bagconsist"
)

// daemonMaxNodes is bagcd's default -max-nodes; the replay's Checkers
// use it so their cache keys and search budgets match the daemon's.
const daemonMaxNodes = 10_000_000

// replayResult sums per-layer costs over the replayed requests. Every
// sum counts a layer only where the daemon's path for that request
// reaches it (a RAM hit never reaches core or ilp).
type replayResult struct {
	requests int
	sums     map[string]float64
}

func (r *replayResult) add(name string, v float64) { r.sums[name] += v }

// mean is the per-request value of a layer metric.
func (r *replayResult) mean(name string) float64 {
	if r.requests == 0 {
		return 0
	}
	return r.sums[name] / float64(r.requests)
}

// replayer times each layer's public function on the exact request
// bodies, one request at a time, with its cache (and store) in the state
// the daemon's is in at that request.
type replayer struct {
	in       *inputs
	cached   *bagconsist.Checker // the daemon's configuration
	uncached *bagconsist.Checker // the same without a cache: core.check
	gopts    core.GlobalOptions
	spans    *spanLog
	ctx      context.Context
}

func newReplayer(ctx context.Context, in *inputs, storeDir string, spans *spanLog) (*replayer, func() error, error) {
	opts := []bagconsist.Option{
		bagconsist.WithMaxNodes(daemonMaxNodes),
		bagconsist.WithParallelism(runtime.GOMAXPROCS(0)),
		bagconsist.WithSharedCache(bagconsist.NewCache(4096)),
		bagconsist.WithCheckObserver(telemetry.RecordCheck),
	}
	closeFn := func() error { return nil }
	if storeDir != "" {
		st, err := bagconsist.OpenStore(storeDir)
		if err != nil {
			return nil, nil, fmt.Errorf("replay store: %w", err)
		}
		opts = append(opts, bagconsist.WithStore(st))
		closeFn = st.Close
	}
	return &replayer{
		in:       in,
		cached:   bagconsist.New(opts...),
		uncached: bagconsist.New(bagconsist.WithMaxNodes(daemonMaxNodes)),
		gopts:    core.GlobalOptions{MaxNodes: daemonMaxNodes},
		spans:    spans,
		ctx:      ctx,
	}, closeFn, nil
}

// run warms the cache with the warm-up requests, then replays seq in
// order until budget is spent or limit requests are done.
func (rp *replayer) run(seq []request, budget time.Duration, limit int) (*replayResult, error) {
	for _, r := range rp.in.warm {
		if _, err := rp.one(r, -1, &replayResult{sums: map[string]float64{}}); err != nil {
			return nil, err
		}
	}
	res := &replayResult{sums: map[string]float64{}}
	deadline := time.Now().Add(budget)
	for k := 0; k < limit && time.Now().Before(deadline); k++ {
		if _, err := rp.one(seq[k%len(seq)], int64(k), res); err != nil {
			return nil, err
		}
		res.requests++
	}
	return res, rp.ctx.Err()
}

// decoded is a request body as the daemon's handler builds it.
type decoded struct {
	bags []bagio.NamedBag
	coll *core.Collection // global checks only
}

func (rp *replayer) decode(r request) (*decoded, error) {
	body := rp.in.bodies[r.body]
	var bags []bagio.NamedBag
	var err error
	if r.ctype == ctypeBagcol {
		_, bags, err = bagio.DecodeColumnarReader(bytes.NewReader(body))
	} else {
		_, bags, err = bagio.DecodeAny(bytes.NewReader(body))
	}
	d := &decoded{bags: bags}
	if err == nil && r.path == pathGlobal {
		d.coll, err = bagio.ToCollection(bags)
	}
	return d, err
}

// timed runs f and returns its wall time and heap allocation count.
func timed(f func()) (time.Duration, uint64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	f()
	d := time.Since(start)
	runtime.ReadMemStats(&after)
	return d, after.Mallocs - before.Mallocs
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// one replays a single request, adding its layer costs to res.
func (rp *replayer) one(r request, k int64, res *replayResult) (*bagconsist.Report, error) {
	it := rp.in.items[r.item]
	reqStart := time.Now()
	var parent int32 = -1
	mark := func(name string, start time.Time, d time.Duration) {
		if rp.spans != nil && k >= 0 {
			rp.spans.add("replay", name, k, parent, start, start.Add(d))
		}
	}
	if rp.spans != nil && k >= 0 {
		// The root is rewritten below once the request's end is known.
		parent = rp.spans.add("replay", "replay.request", k, -1, reqStart, reqStart)
	}

	var dec *decoded
	var err error
	t := time.Now()
	d, allocs := timed(func() { dec, err = rp.decode(r) })
	if err != nil {
		return nil, fmt.Errorf("replay decode: %w", err)
	}
	mark("bagio.decode", t, d)
	res.add("bagio.decode_us", us(d))
	res.add("bagio.decode_allocs", float64(allocs))

	bagsList := make([]*bag.Bag, len(dec.bags))
	for i, nb := range dec.bags {
		bagsList[i] = nb.Bag
	}
	t = time.Now()
	d, allocs = timed(func() { _, err = canon.Bags(bagsList) })
	if err != nil {
		return nil, fmt.Errorf("replay fingerprint: %w", err)
	}
	mark("canon.fingerprint", t, d)
	res.add("canon.fingerprint_us", us(d))
	res.add("canon.fingerprint_allocs", float64(allocs))

	var gyo time.Duration
	if !it.pair {
		t = time.Now()
		gyo, _ = timed(func() { dec.coll.Hypergraph().IsAcyclic() })
		mark("hypergraph.gyo", t, gyo)
	}

	// The daemon's cached call: a RAM hit, or a miss that computes and
	// writes through.
	var rep *bagconsist.Report
	t = time.Now()
	cachedDur, cachedAllocs := timed(func() {
		if it.pair {
			rep, err = rp.cached.CheckPair(rp.ctx, dec.bags[0].Bag, dec.bags[1].Bag)
		} else {
			rep, err = rp.cached.CheckGlobal(rp.ctx, dec.coll)
		}
	})
	if err != nil {
		return nil, fmt.Errorf("replay cached check: %w", err)
	}
	mark("cache.check", t, cachedDur)
	// Admission classifies every global request with GYO; a miss runs it
	// again inside the engine.
	gyoCalls := 1.0
	if rep.CacheHit {
		res.add("cache.hit_us", us(cachedDur))
		res.add("cache.hit_allocs", float64(cachedAllocs))
	} else {
		gyoCalls = 2
		if err := rp.miss(r, it, dec, cachedDur, k, parent, res); err != nil {
			return nil, err
		}
	}
	if !it.pair {
		res.add("hypergraph.gyo_us", gyoCalls*us(gyo))
	}

	var buf bytes.Buffer
	t = time.Now()
	d, _ = timed(func() { err = json.NewEncoder(&buf).Encode(rep) })
	if err != nil {
		return nil, err
	}
	mark("report.encode", t, d)
	res.add("report.encode_us", us(d))

	if !it.pair && rep.Consistent {
		w, werr := rep.WitnessBag()
		if werr != nil || w == nil {
			return nil, fmt.Errorf("replay: YES without a witness: %v", werr)
		}
		var ok bool
		t = time.Now()
		d, _ = timed(func() { ok, err = dec.coll.VerifyWitness(w) })
		if err != nil || !ok {
			return nil, fmt.Errorf("replay: witness does not verify: %v", err)
		}
		mark("verify.witness", t, d)
		res.add("verify.witness_us", us(d))
	}
	if rp.spans != nil && k >= 0 {
		rp.spans.mu.Lock()
		rp.spans.spans[parent].End = time.Since(rp.spans.epoch).Nanoseconds()
		rp.spans.mu.Unlock()
	}
	return rep, nil
}

// miss times the engine layers a cache miss runs: the uncached Checker
// call (core.check), and inside it the pairwise test, the acyclic
// composition with minimization on (and, for comparison, off), or the
// program build and exact search on cyclic schemas.
func (rp *replayer) miss(r request, it item, dec *decoded, cachedDur time.Duration, k int64, parent int32, res *replayResult) error {
	mark := func(name string, start time.Time, d time.Duration) {
		if rp.spans != nil && k >= 0 {
			rp.spans.add("replay", name, k, parent, start, start.Add(d))
		}
	}
	var err error
	t := time.Now()
	check, _ := timed(func() {
		if it.pair {
			_, err = rp.uncached.CheckPair(rp.ctx, dec.bags[0].Bag, dec.bags[1].Bag)
		} else {
			_, err = rp.uncached.CheckGlobal(rp.ctx, dec.coll)
		}
	})
	if err != nil {
		return fmt.Errorf("replay uncached check: %w", err)
	}
	mark("core.check", t, check)
	res.add("core.check_us", us(check))
	res.add("cache.miss_overhead_us", us(cachedDur-check))
	if it.pair {
		return nil
	}

	coll := dec.coll
	var pw bool
	t = time.Now()
	d, _ := timed(func() { pw, err = coll.PairwiseConsistent() })
	if err != nil {
		return err
	}
	mark("core.pairwise", t, d)
	res.add("core.pairwise_us", us(d))

	if coll.Hypergraph().IsAcyclic() {
		for _, arm := range []struct {
			name string
			skip bool
		}{{"core.acyclic-compose", false}, {"core.flow-witness", true}} {
			o := rp.gopts
			o.SkipWitnessMinimization = arm.skip
			t = time.Now()
			d, _ = timed(func() { _, _, err = coll.WitnessAcyclicContext(rp.ctx, o) })
			if err != nil {
				return err
			}
			mark(arm.name, t, d)
			res.add(arm.name+"_us", us(d))
		}
		return nil
	}
	if !pw {
		return nil // refuted pairwise: no program is built
	}
	var p *ilp.Problem
	t = time.Now()
	d, _ = timed(func() { p, _, err = coll.BuildProgram() })
	if err != nil {
		return err
	}
	mark("core.program-build", t, d)
	res.add("core.program-build_us", us(d))
	if len(p.Cols) == 0 {
		return nil
	}
	var sol *ilp.Solution
	t = time.Now()
	d, _ = timed(func() { sol, err = ilp.SolveContext(rp.ctx, p, rp.gopts.ILP()) })
	if err != nil {
		return err
	}
	mark("ilp.search", t, d)
	res.add("ilp.search_us", us(d))
	res.add("ilp.nodes", float64(sol.Nodes))
	return nil
}
