// Package table is the interned columnar data plane of the engine: it
// dictionary-encodes attribute values into dense uint32 ids at ingest and
// represents bags as flat row-major id buffers with parallel int64
// multiplicities, so that every hot decision-procedure loop — marginals,
// bag equality, support joins, the Lemma 2 pair network — runs on machine
// integers instead of per-tuple key strings and map[string] lookups.
//
// The package deliberately knows nothing about schemas or consistency; it
// provides three primitives that internal/bag, internal/core and
// internal/canon compose:
//
//   - Dict: an append-only per-attribute string interner. Ids are dense
//     and insertion-ordered, which makes per-operation remap tables
//     ([]uint32 indexed by id) possible: translating a value between two
//     dictionaries is one array load in the inner loop, with the string
//     lookups paid once per distinct value, outside the loop.
//   - Rows: the flat columnar buffer (W ids per row, one count per row).
//   - Index: an open-addressing hash index over a Rows buffer for O(1)
//     integer-keyed row deduplication, replacing map[string]*entry.
//
// Sorting and grouping (SortPerm, radix passes) provide the sort-based
// group-by used by marginals and sort-merge support joins. Scratch
// buffers for those passes come from pooled allocators (pool.go), keeping
// the steady-state hot path allocation-free.
package table

import "sync"

// Dict interns the values of one attribute into dense uint32 ids in
// first-seen order. It is append-only: ids are never invalidated.
//
// A Dict may be shared between bags (a marginal shares its parent's
// column dictionaries; a join witness shares both inputs'). Interning
// takes a write lock and lookups a read lock, so concurrent readers of
// derived bags stay safe while an owner keeps ingesting; hot loops avoid
// the lock entirely by working on Snapshot and remap tables.
//
// A Dict built by DictFromSnapshot starts without its value→id map; the
// map is materialized on the first Lookup or Intern. Until then the
// dictionary costs exactly its value table — the property the zero-copy
// bagcol decode path relies on (id-resolving reads via Value never need
// the map at all).
type Dict struct {
	mu   sync.RWMutex
	vals []string
	idx  map[string]uint32 // nil until first string-keyed access on a snapshot dict
}

// NewDict returns an empty dictionary.
func NewDict() *Dict {
	return &Dict{idx: make(map[string]uint32)}
}

// DictFromSnapshot adopts a pre-interned value table: vals[i] is the
// string with id i. The slice is adopted, not copied — the caller must
// not mutate it afterwards. The value→id index is built lazily on the
// first Lookup or Intern, so bulk-loading paths that only ever resolve
// ids (Value, Snapshot) pay one slice-header allocation per column and
// nothing per value.
//
// The values are expected to be distinct; duplicates are tolerated (the
// later id wins string-keyed lookups) but make the dictionary
// non-injective, which well-formed writers never produce.
func DictFromSnapshot(vals []string) *Dict {
	return &Dict{vals: vals}
}

// ensureIdx materializes the lazy value→id map. Callers must not hold mu.
func (d *Dict) ensureIdx() {
	d.mu.Lock()
	if d.idx == nil {
		idx := make(map[string]uint32, len(d.vals))
		for i, v := range d.vals {
			idx[v] = uint32(i)
		}
		d.idx = idx
	}
	d.mu.Unlock()
}

// Intern returns the id of v, assigning the next dense id on first sight.
func (d *Dict) Intern(v string) uint32 {
	d.mu.RLock()
	lazy := d.idx == nil
	id, ok := d.idx[v]
	d.mu.RUnlock()
	if ok {
		return id
	}
	if lazy {
		d.ensureIdx()
		return d.Intern(v)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if id, ok := d.idx[v]; ok {
		return id
	}
	id = uint32(len(d.vals))
	d.vals = append(d.vals, v)
	d.idx[v] = id
	return id
}

// InternBytes is Intern for a value held in a byte slice, such as a token
// of a request body. The lookups convert without allocating, so the
// value's string is allocated only on its first sight.
func (d *Dict) InternBytes(v []byte) uint32 {
	d.mu.RLock()
	lazy := d.idx == nil
	id, ok := d.idx[string(v)]
	d.mu.RUnlock()
	if ok {
		return id
	}
	if lazy {
		d.ensureIdx()
		return d.InternBytes(v)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if id, ok := d.idx[string(v)]; ok {
		return id
	}
	s := string(v)
	id = uint32(len(d.vals))
	d.vals = append(d.vals, s)
	d.idx[s] = id
	return id
}

// Lookup returns the id of v without interning it.
func (d *Dict) Lookup(v string) (uint32, bool) {
	d.mu.RLock()
	if d.idx == nil {
		d.mu.RUnlock()
		d.ensureIdx()
		d.mu.RLock()
	}
	id, ok := d.idx[v]
	d.mu.RUnlock()
	return id, ok
}

// Value returns the string with the given id. Ids come only from Intern,
// so an out-of-range id is a programming error and panics.
func (d *Dict) Value(id uint32) string {
	d.mu.RLock()
	v := d.vals[id]
	d.mu.RUnlock()
	return v
}

// Len returns the number of interned values.
func (d *Dict) Len() int {
	d.mu.RLock()
	n := len(d.vals)
	d.mu.RUnlock()
	return n
}

// Snapshot returns the value table at the current length. The returned
// slice is immutable (appends never write below the snapshot length), so
// callers may index it freely without holding any lock.
func (d *Dict) Snapshot() []string {
	d.mu.RLock()
	s := d.vals[:len(d.vals):len(d.vals)]
	d.mu.RUnlock()
	return s
}

// Clone returns an independent copy with the same id assignment. A
// snapshot dict whose index has not materialized yet clones as another
// lazy dict (a nil index means "not built", not "empty").
func (d *Dict) Clone() *Dict {
	d.mu.RLock()
	defer d.mu.RUnlock()
	c := &Dict{vals: append([]string(nil), d.vals...)}
	if d.idx != nil {
		c.idx = make(map[string]uint32, len(d.idx))
		for v, id := range d.idx {
			c.idx[v] = id
		}
	}
	return c
}

// MissingID is the sentinel Remap uses for values absent from the target
// dictionary. It is never a valid id (a dictionary of 2^32-1 values would
// exhaust memory long before).
const MissingID = ^uint32(0)

// Remap builds the translation table from one dictionary's id space into
// another's: out[id] is the id in to of from.Value(id), or MissingID when
// to has never seen that value. The string lookups happen here, once per
// distinct value; after that, translation inside a row loop is a single
// array load.
func Remap(from, to *Dict) []uint32 {
	vals := from.Snapshot()
	out := make([]uint32, len(vals))
	for id, v := range vals {
		if tid, ok := to.Lookup(v); ok {
			out[id] = tid
		} else {
			out[id] = MissingID
		}
	}
	return out
}

// RemapInto is Remap reusing a caller-provided buffer (typically pooled).
func RemapInto(from, to *Dict, buf []uint32) []uint32 {
	vals := from.Snapshot()
	if cap(buf) < len(vals) {
		buf = make([]uint32, len(vals))
	}
	buf = buf[:len(vals)]
	for id, v := range vals {
		if tid, ok := to.Lookup(v); ok {
			buf[id] = tid
		} else {
			buf[id] = MissingID
		}
	}
	return buf
}
