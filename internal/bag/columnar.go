package bag

import (
	"fmt"

	"bagconsistency/internal/table"
)

// View is the read-only columnar window engine code (internal/core,
// internal/canon) works through: the per-attribute dictionaries and the
// flat interned row buffer. Row positions are stable for the life of the
// view (0..N-1, all support) and double as dense tuple identifiers, which
// is what lets the pair network and the integer program index nodes and
// constraint rows without any map[string].
//
// The view aliases the bag's internal buffers. Callers must not mutate it
// or the bag while using it.
type View struct {
	Schema *Schema
	// Cols holds one dictionary per attribute in canonical order. Shared
	// with the bag (and possibly its ancestors); append-only.
	Cols []*table.Dict
	// Rows is the support: Rows.N() rows, every count positive.
	Rows *table.Rows
}

// View returns the columnar view of the bag's support. Like every read
// path it leaves the bag untouched, so any number of goroutines may view
// one bag concurrently.
func (b *Bag) View() View {
	return View{Schema: b.schema, Cols: b.cols, Rows: &b.rows}
}

// OrderedPositions returns the bag's row positions in its deterministic
// iteration order (the order Each and Tuples use). The slice is freshly
// computed per call — the caller owns it.
func (b *Bag) OrderedPositions() []int32 {
	return b.orderedRows()
}

// UnionSrc says where one attribute of a two-bag union schema takes its
// values from: R's column Pos when FromR, S's column Pos otherwise.
type UnionSrc struct {
	FromR bool
	Pos   int
}

// UnionLayout computes the union schema of two bags together with, for
// each union attribute in canonical order, its source column (R
// preferred on shared attributes) and the dictionary an output column
// over that attribute adopts. Join and the pair network's witness
// assembly share this one definition, so their row encodings cannot
// drift apart.
func UnionLayout(r, s *Bag) (*Schema, []UnionSrc, []*table.Dict) {
	union := r.schema.Union(s.schema)
	srcs := make([]UnionSrc, union.Len())
	cols := make([]*table.Dict, union.Len())
	for i, a := range union.attrs {
		if p := r.schema.Pos(a); p >= 0 {
			srcs[i] = UnionSrc{FromR: true, Pos: p}
			cols[i] = r.cols[p]
		} else {
			p := s.schema.Pos(a)
			srcs[i] = UnionSrc{FromR: false, Pos: p}
			cols[i] = s.cols[p]
		}
	}
	return union, srcs, cols
}

// EachJoinPair calls emit(rpos, spos) for every pair of support row
// positions of r and s that agree on every shared attribute — the index
// pairs of the relational join R' ⋈ S' — in a deterministic order (run
// by run as EachJoinRun visits them, r's row outer), stopping on the
// first error. This is the integer-keyed primitive Join and the Lemma 2
// pair network are built from: no join bag is materialized and no tuple
// is ever re-keyed through a string map.
func EachJoinPair(r, s *Bag, emit func(rpos, spos int) error) error {
	return EachJoinRun(r, s, func(rpos, spos []int32) error {
		for _, i := range rpos {
			for _, j := range spos {
				if err := emit(int(i), int(j)); err != nil {
					return err
				}
			}
		}
		return nil
	})
}

// FromColumnar assembles a bag over s that adopts the given column
// dictionaries and row buffer. The rows must be distinct, their counts
// positive, and every id valid in its column's dictionary — the callers
// (witness construction, sort-based group-bys) guarantee this by
// construction. The buffer is adopted, not copied.
func FromColumnar(s *Schema, cols []*table.Dict, rows table.Rows) (*Bag, error) {
	if len(cols) != s.Len() || rows.W != s.Len() {
		return nil, fmt.Errorf("bag: columnar data with %d columns (width %d) for schema %v", len(cols), rows.W, s)
	}
	b := &Bag{schema: s, cols: cols, rows: rows}
	b.finishRows()
	return b, nil
}

// FromColumnarStrict is FromColumnar for buffers that arrive from
// outside the process (the bagcol decoder): in addition to the shape
// check it validates that every id is in range for its column's
// dictionary, every count is positive, and no support row repeats.
// The validation is integer-only — O(N·W) array loads plus the index
// probes the bag builds anyway — so bulk ingest stays allocation-free
// per tuple. The buffers are adopted on success; on error they are not
// retained.
func FromColumnarStrict(s *Schema, cols []*table.Dict, rows table.Rows) (*Bag, error) {
	if len(cols) != s.Len() || rows.W != s.Len() {
		return nil, fmt.Errorf("bag: columnar data with %d columns (width %d) for schema %v", len(cols), rows.W, s)
	}
	n := rows.N()
	w := rows.W
	if len(rows.IDs) != n*w {
		return nil, fmt.Errorf("bag: columnar data with %d counts but %d ids (width %d)", n, len(rows.IDs), w)
	}
	limits := make([]uint32, w)
	for c := 0; c < w; c++ {
		limits[c] = uint32(cols[c].Len())
	}
	for i := 0; i < n; i++ {
		row := rows.IDs[i*w : (i+1)*w]
		for c, id := range row {
			if id >= limits[c] {
				return nil, fmt.Errorf("bag: row %d attribute %q: id %d out of range (dictionary has %d values)", i, s.Attrs()[c], id, limits[c])
			}
		}
	}
	for i, cnt := range rows.Counts {
		if cnt <= 0 {
			return nil, fmt.Errorf("bag: row %d has non-positive multiplicity %d", i, cnt)
		}
	}
	b := &Bag{schema: s, cols: cols, rows: rows, index: table.NewIndex(n)}
	// Building the index and proving row distinctness are one pass: the
	// insert probe that would find a duplicate is the same probe a
	// separate Find would repeat.
	if j, i := b.index.RebuildDistinct(&b.rows); j >= 0 {
		return nil, fmt.Errorf("bag: rows %d and %d are duplicates", j, i)
	}
	return b, nil
}
