package bag

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"

	"bagconsistency/internal/table"
)

// Bag is a finite multiset of tuples over a schema: a function from
// Tup(X) to non-negative integers with finite support. The zero multiplicity
// is implicit — only tuples with positive multiplicity are stored.
//
// Internally a bag is interned and columnar: every attribute has a
// dictionary (table.Dict) mapping its value strings to dense uint32 ids,
// and the support is a flat row buffer of ids with parallel int64
// multiplicities. Values are interned once at ingest; every engine
// operation downstream (marginals, equality, joins, the pair network)
// runs on integer ids — no per-tuple key strings exist anywhere.
//
// Derived bags (marginals, joins, witnesses) share their parents'
// dictionaries, so deriving never re-interns. Dictionaries are safe for
// concurrent readers (see table.Dict); bags themselves follow the usual
// rule: concurrent reads are safe, mutation needs external sync. To keep
// the read half of that contract, reads never touch bag state: the row
// index is maintained eagerly by mutations (and built in bulk when a
// derived bag is assembled), deletions swap-remove in place, and the
// deterministic display order is computed per call, never cached.
type Bag struct {
	schema *Schema
	cols   []*table.Dict
	rows   table.Rows
	index  *table.Index
}

// New returns an empty bag over the schema.
func New(s *Schema) *Bag {
	cols := make([]*table.Dict, s.Len())
	for i := range cols {
		cols[i] = table.NewDict()
	}
	return &Bag{schema: s, cols: cols, rows: table.Rows{W: s.Len()}, index: table.NewIndex(0)}
}

// NewShared returns an empty bag over s whose columns adopt the given
// dictionaries, one per attribute of s in canonical order, with room for
// about rows rows. Decoders use it to make every bag of a request share
// one dictionary per attribute; rows then go in through AddIDs.
func NewShared(s *Schema, cols []*table.Dict, rows int) (*Bag, error) {
	if len(cols) != s.Len() {
		return nil, fmt.Errorf("bag: %d dictionaries for schema %v", len(cols), s)
	}
	w := s.Len()
	b := &Bag{schema: s, cols: cols, rows: table.Rows{W: w}, index: table.NewIndex(rows)}
	if rows > 0 {
		b.rows.IDs = make([]uint32, 0, rows*w)
		b.rows.Counts = make([]int64, 0, rows)
	}
	return b, nil
}

// newDerived returns an empty bag over s that adopts existing column
// dictionaries (one per attribute of s, in canonical order). The caller
// fills rows directly and must finish with finishRows.
func newDerived(s *Schema, cols []*table.Dict) *Bag {
	return &Bag{schema: s, cols: cols, rows: table.Rows{W: s.Len()}}
}

// finishRows bulk-builds the row index after direct row construction, so
// the finished bag serves lookups without ever mutating on a read path.
func (b *Bag) finishRows() {
	b.index = table.NewIndex(b.rows.N())
	b.index.Rebuild(&b.rows)
}

// FromRows builds a bag over s from parallel slices of value rows and
// multiplicities. Rows with the same values accumulate. A nil counts slice
// gives every row multiplicity 1.
func FromRows(s *Schema, rows [][]string, counts []int64) (*Bag, error) {
	if counts != nil && len(counts) != len(rows) {
		return nil, fmt.Errorf("bag: %d rows but %d counts", len(rows), len(counts))
	}
	b := New(s)
	for i, row := range rows {
		c := int64(1)
		if counts != nil {
			c = counts[i]
		}
		if err := b.Add(row, c); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// Schema returns the schema the bag is defined over.
func (b *Bag) Schema() *Schema { return b.schema }

// removeRow deletes row pos by swapping the last row into its place:
// O(1) row movement plus two localized index fixups (backward-shift
// deletion), so tuple-by-tuple clearing of an n-row bag stays O(n)
// total. Every stored row is support at all times.
func (b *Bag) removeRow(pos int) {
	last := b.rows.N() - 1
	w := b.rows.W
	b.index.Delete(&b.rows, pos)
	if pos != last {
		b.index.Delete(&b.rows, last)
		copy(b.rows.IDs[pos*w:(pos+1)*w], b.rows.IDs[last*w:(last+1)*w])
		b.rows.Counts[pos] = b.rows.Counts[last]
	}
	b.rows.IDs = b.rows.IDs[:last*w]
	b.rows.Counts = b.rows.Counts[:last]
	if pos != last {
		b.index.Insert(&b.rows, pos)
	}
}

// findRow returns the position of the row with the given ids, or -1.
func (b *Bag) findRow(row []uint32) int {
	return b.index.Find(&b.rows, row)
}

// internRow interns vals into the bag's dictionaries, filling row.
func (b *Bag) internRow(vals []string, row []uint32) {
	for i, v := range vals {
		row[i] = b.cols[i].Intern(v)
	}
}

// Add increases the multiplicity of the tuple with the given values (in
// canonical attribute order) by mult. mult must be non-negative; adding 0 is
// a no-op.
func (b *Bag) Add(vals []string, mult int64) error {
	if err := b.checkAdd(len(vals), mult); err != nil || mult == 0 {
		return err
	}
	row := table.GetUint32s(len(vals))
	defer table.PutUint32s(row)
	b.internRow(vals, row)
	return b.addRow(row, mult)
}

// AddIDs is Add for a row of ids already interned in the bag's own
// dictionaries: the same checks in the same order (mult, then width), the
// same dropping of zero multiplicities and the same summing of repeated
// rows. Every id must be valid in its column's dictionary. row is read
// only when the checks pass and mult is positive.
func (b *Bag) AddIDs(row []uint32, mult int64) error {
	if err := b.checkAdd(len(row), mult); err != nil || mult == 0 {
		return err
	}
	return b.addRow(row, mult)
}

func (b *Bag) checkAdd(width int, mult int64) error {
	if mult < 0 {
		return fmt.Errorf("bag: negative multiplicity %d", mult)
	}
	if width != b.schema.Len() {
		return fmt.Errorf("bag: row has %d values for schema %v", width, b.schema)
	}
	return nil
}

// addRow adds mult to the row with the given ids, appending it when new.
func (b *Bag) addRow(row []uint32, mult int64) error {
	if pos := b.findRow(row); pos >= 0 {
		c, err := checkedAdd(b.rows.Counts[pos], mult)
		if err != nil {
			return err
		}
		b.rows.Counts[pos] = c
		return nil
	}
	pos := b.rows.Append(row, mult)
	b.index.Insert(&b.rows, pos)
	return nil
}

// AddTuple is Add for a Tuple value. The tuple's schema must equal the
// bag's schema.
func (b *Bag) AddTuple(t Tuple, mult int64) error {
	if !t.schema.Equal(b.schema) {
		return fmt.Errorf("bag: tuple schema %v does not match bag schema %v", t.schema, b.schema)
	}
	return b.Add(t.vals, mult)
}

// Set fixes the multiplicity of the tuple with the given values. Setting 0
// removes the tuple from the support.
func (b *Bag) Set(vals []string, mult int64) error {
	if mult < 0 {
		return fmt.Errorf("bag: negative multiplicity %d", mult)
	}
	if len(vals) != b.schema.Len() {
		return fmt.Errorf("bag: row has %d values for schema %v", len(vals), b.schema)
	}
	row := table.GetUint32s(len(vals))
	defer table.PutUint32s(row)
	if mult == 0 {
		// Delete without interning: a value never seen cannot be present.
		for i, v := range vals {
			id, ok := b.cols[i].Lookup(v)
			if !ok {
				return nil
			}
			row[i] = id
		}
		if pos := b.findRow(row); pos >= 0 {
			b.removeRow(pos)
		}
		return nil
	}
	b.internRow(vals, row)
	if pos := b.findRow(row); pos >= 0 {
		b.rows.Counts[pos] = mult
	} else {
		pos = b.rows.Append(row, mult)
		b.index.Insert(&b.rows, pos)
	}
	return nil
}

// Count returns the multiplicity of the tuple with the given values
// (0 if the tuple is not in the support).
func (b *Bag) Count(vals []string) int64 {
	if len(vals) != b.schema.Len() {
		return 0
	}
	row := table.GetUint32s(len(vals))
	defer table.PutUint32s(row)
	for i, v := range vals {
		id, ok := b.cols[i].Lookup(v)
		if !ok {
			return 0
		}
		row[i] = id
	}
	if pos := b.findRow(row); pos >= 0 {
		return b.rows.Counts[pos]
	}
	return 0
}

// CountTuple returns the multiplicity of t in b.
func (b *Bag) CountTuple(t Tuple) int64 { return b.Count(t.vals) }

// Len returns the support size |R'| (number of distinct tuples).
func (b *Bag) Len() int { return b.rows.N() }

// resolveRow materializes row pos as value strings into vals.
func (b *Bag) resolveRow(pos int, vals []string) {
	w := b.rows.W
	for j := 0; j < w; j++ {
		vals[j] = b.cols[j].Value(b.rows.IDs[pos*w+j])
	}
}

// orderedRows computes the deterministic iteration order: ascending by
// the length-prefixed key encoding of the resolved values, exactly the
// order the original string-keyed representation iterated in, so every
// textual rendering and golden file is byte-stable across the engine
// swap. No key is built: the "len:value" pieces are prefix-free, so
// comparing two concatenations is comparing their pieces one column at a
// time. This is a display-path concern only; the decision procedures
// never sort by strings. The order is computed fresh per call (never
// cached on the bag) so read paths stay mutation-free and any number of
// goroutines can enumerate one bag concurrently.
func (b *Bag) orderedRows() []int32 {
	n, w := b.rows.N(), b.rows.W
	order := make([]int32, n)
	for i := range order {
		order[i] = int32(i)
	}
	vals := make([][]string, w)
	for j, d := range b.cols {
		vals[j] = d.Snapshot()
	}
	ids := b.rows.IDs
	slices.SortFunc(order, func(x, y int32) int {
		for j := 0; j < w; j++ {
			a, c := ids[int(x)*w+j], ids[int(y)*w+j]
			if a == c {
				continue
			}
			if r := compareKeyPieces(vals[j][a], vals[j][c]); r != 0 {
				return r
			}
		}
		return 0
	})
	return order
}

// DisplayRanks sets rank[id], for every id of d whose entry is nonzero,
// to its value's place among them in display order (compareKeyPieces),
// so rank vectors order rows as orderedRows does.
func DisplayRanks(d *table.Dict, rank []uint32) {
	vals := d.Snapshot()
	ids := table.GetUint32s(0)
	for id, r := range rank {
		if r != 0 {
			ids = append(ids, uint32(id))
		}
	}
	slices.SortFunc(ids, func(a, b uint32) int { return compareKeyPieces(vals[a], vals[b]) })
	for r, id := range ids {
		rank[id] = uint32(r)
	}
	table.PutUint32s(ids)
}

// compareKeyPieces orders two values as their encodeKey pieces "len:v"
// compare. Pieces of equal length compare by value; otherwise the
// decimal length prefixes differ before either ends, and decide.
func compareKeyPieces(a, b string) int {
	if len(a) == len(b) {
		return strings.Compare(a, b)
	}
	var pa, pb [24]byte
	return bytes.Compare(
		append(strconv.AppendInt(pa[:0], int64(len(a)), 10), ':'),
		append(strconv.AppendInt(pb[:0], int64(len(b)), 10), ':'))
}

// Each calls fn once per support tuple in deterministic order, stopping
// early and returning fn's error if it is non-nil.
func (b *Bag) Each(fn func(t Tuple, count int64) error) error {
	for _, pos := range b.orderedRows() {
		vals := make([]string, b.rows.W)
		b.resolveRow(int(pos), vals)
		if err := fn(Tuple{schema: b.schema, vals: vals}, b.rows.Counts[pos]); err != nil {
			return err
		}
	}
	return nil
}

// Tuples returns the support tuples in deterministic order.
func (b *Bag) Tuples() []Tuple {
	order := b.orderedRows()
	out := make([]Tuple, 0, len(order))
	for _, pos := range order {
		vals := make([]string, b.rows.W)
		b.resolveRow(int(pos), vals)
		out = append(out, Tuple{schema: b.schema, vals: vals})
	}
	return out
}

// Clone returns a deep copy of the bag. The copy has its own
// dictionaries, so the original and the clone can be mutated
// independently (including from different goroutines).
func (b *Bag) Clone() *Bag {
	cols := make([]*table.Dict, len(b.cols))
	for i, d := range b.cols {
		cols[i] = d.Clone()
	}
	return &Bag{schema: b.schema, cols: cols, rows: b.rows.Clone(), index: b.index.Clone()}
}

// columnRemaps builds per-column translation tables from c's id space
// into b's. A nil entry means the column shares one dictionary and the
// identity applies; absent values map to table.MissingID. The buffers are
// pooled — callers must putRemaps when done.
func columnRemaps(c, b *Bag) [][]uint32 {
	maps := make([][]uint32, len(c.cols))
	for j := range c.cols {
		if c.cols[j] == b.cols[j] {
			continue // identity
		}
		maps[j] = table.RemapInto(c.cols[j], b.cols[j], table.GetUint32s(0))
	}
	return maps
}

func putRemaps(maps [][]uint32) {
	for _, m := range maps {
		if m != nil {
			table.PutUint32s(m)
		}
	}
}

// remapRow translates row pos of c into b's id space using maps; reports
// false when a value is unknown to b.
func remapRow(c *Bag, pos int, maps [][]uint32, out []uint32) bool {
	w := c.rows.W
	for j := 0; j < w; j++ {
		id := c.rows.IDs[pos*w+j]
		if m := maps[j]; m != nil {
			id = m[id]
			if id == table.MissingID {
				return false
			}
		}
		out[j] = id
	}
	return true
}

// Equal reports whether two bags have equal schemas and identical
// multiplicity functions.
func (b *Bag) Equal(c *Bag) bool {
	if !b.schema.Equal(c.schema) {
		return false
	}
	if b.rows.N() != c.rows.N() {
		return false
	}
	if b == c {
		return true
	}
	maps := columnRemaps(c, b)
	defer putRemaps(maps)
	row := table.GetUint32s(b.rows.W)
	defer table.PutUint32s(row)
	for i := 0; i < c.rows.N(); i++ {
		if !remapRow(c, i, maps, row) {
			return false
		}
		pos := b.index.Find(&b.rows, row)
		if pos < 0 || b.rows.Counts[pos] != c.rows.Counts[i] {
			return false
		}
	}
	return true
}

// ContainedIn reports bag containment R ⊆b S: R(t) ≤ S(t) for every tuple t.
// The schemas must be equal for the result to be true.
func (b *Bag) ContainedIn(c *Bag) bool {
	if !b.schema.Equal(c.schema) {
		return false
	}
	maps := columnRemaps(b, c)
	defer putRemaps(maps)
	row := table.GetUint32s(c.rows.W)
	defer table.PutUint32s(row)
	for i := 0; i < b.rows.N(); i++ {
		if !remapRow(b, i, maps, row) {
			return false
		}
		pos := c.index.Find(&c.rows, row)
		if pos < 0 || c.rows.Counts[pos] < b.rows.Counts[i] {
			return false
		}
	}
	return true
}

// Marginal computes the bag R[Z] of Equation (2): the multiplicity of a
// Z-tuple t is the sum of R(r) over support tuples r with r[Z] = t.
// sub must be a subset of the bag's schema.
//
// The computation is a sort-based group-by over interned ids: project the
// kept columns, radix-sort the projected rows, fold equal runs by summing
// multiplicities. The result shares this bag's column dictionaries, so no
// value is ever re-interned and no key strings are built.
func (b *Bag) Marginal(sub *Schema) (*Bag, error) {
	pos, err := b.schema.positions(sub)
	if err != nil {
		return nil, err
	}
	cols := make([]*table.Dict, len(pos))
	for i, p := range pos {
		cols[i] = b.cols[p]
	}
	out := newDerived(sub, cols)
	n := b.rows.N()
	if n == 0 {
		out.finishRows()
		return out, nil
	}
	w2 := len(pos)
	if w2 == 0 {
		// Empty sub-schema: the single empty tuple carries the total
		// multiplicity.
		var total int64
		for _, c := range b.rows.Counts {
			t, err := checkedAdd(total, c)
			if err != nil {
				return nil, err
			}
			total = t
		}
		out.rows.Append(nil, total)
		out.finishRows()
		return out, nil
	}
	proj := table.GetRows(w2)
	defer table.PutRows(proj)
	w := b.rows.W
	for i := 0; i < n; i++ {
		base := i * w
		for _, p := range pos {
			proj.IDs = append(proj.IDs, b.rows.IDs[base+p])
		}
		proj.Counts = append(proj.Counts, b.rows.Counts[i])
	}
	// At most n distinct groups: presize the output to two exact
	// allocations instead of a growth series.
	out.rows.IDs = make([]uint32, 0, n*w2)
	out.rows.Counts = make([]int64, 0, n)
	perm := table.GetInt32s(n)
	defer table.PutInt32s(perm)
	table.SortPerm(proj, perm)
	var foldErr error
	table.Runs(proj, perm, func(start, end int) {
		if foldErr != nil {
			return
		}
		total := int64(0)
		for k := start; k < end; k++ {
			t, err := checkedAdd(total, proj.Counts[perm[k]])
			if err != nil {
				foldErr = err
				return
			}
			total = t
		}
		out.rows.Append(proj.Row(int(perm[start])), total)
	})
	if foldErr != nil {
		return nil, foldErr
	}
	out.finishRows()
	return out, nil
}

// SupportBag returns the relation underlying the bag: same support, every
// multiplicity clamped to 1. The paper writes this R'.
func (b *Bag) SupportBag() *Bag {
	out := newDerived(b.schema, b.cols)
	out.rows.W = b.rows.W
	out.rows.IDs = append([]uint32(nil), b.rows.IDs...)
	out.rows.Counts = make([]int64, b.rows.N())
	for i := range out.rows.Counts {
		out.rows.Counts[i] = 1
	}
	out.index = b.index.Clone() // identical row layout, identical index
	return out
}

// IsRelation reports whether every multiplicity is exactly 1, i.e. the bag
// is a set.
func (b *Bag) IsRelation() bool {
	for _, c := range b.rows.Counts {
		if c != 1 {
			return false
		}
	}
	return true
}

// Join computes the bag join R ⋈b S: support R' ⋈ S' with multiplicity
// (R ⋈b S)(t) = R(t[X]) × S(t[Y]).
//
// The implementation is a sort-merge join on interned ids: both sides'
// shared-attribute projections are translated into one id space (a
// per-distinct-value remap, built outside the loop), radix-sorted, and
// merged; matching groups emit their cross products directly into the
// output row buffer. Output rows are necessarily distinct — a union tuple
// determines its R- and S-projections — so no deduplication pass runs.
func Join(r, s *Bag) (*Bag, error) {
	return join(r, s, false)
}

// JoinSupports returns the relational join of the supports, R' ⋈ S', as a
// bag over the union schema with all multiplicities 1. This is the index set
// J of the linear program P(R, S) in Section 3 of the paper.
func JoinSupports(r, s *Bag) (*Bag, error) {
	return join(r, s, true)
}

func join(r, s *Bag, supports bool) (*Bag, error) {
	union, srcs, cols := UnionLayout(r, s)
	out := newDerived(union, cols)
	outRow := table.GetUint32s(union.Len())
	defer table.PutUint32s(outRow)
	w, sw := r.rows.W, s.rows.W
	err := EachJoinPair(r, s, func(rpos, spos int) error {
		count := int64(1)
		if !supports {
			c, err := checkedMul(r.rows.Counts[rpos], s.rows.Counts[spos])
			if err != nil {
				return err
			}
			count = c
		}
		for oi, sc := range srcs {
			if sc.FromR {
				outRow[oi] = r.rows.IDs[rpos*w+sc.Pos]
			} else {
				outRow[oi] = s.rows.IDs[spos*sw+sc.Pos]
			}
		}
		out.rows.Append(outRow, count)
		return nil
	})
	if err != nil {
		return nil, err
	}
	out.finishRows()
	return out, nil
}

// EachJoinRun is the engine's one sort-merge join. It calls run(rpos,
// spos) once per value of the shared attributes X∩Y found in both bags,
// in a deterministic order: rpos lists r's support row positions
// carrying that value and spos s's, each increasing. Every pair of the
// relational join R' ⋈ S' lies in exactly one run's cross product, so by
// Lemma 2 the pair network N(R,S) is the disjoint union of one complete
// bipartite block per run. Disjoint schemas make a single run of all
// rows. The slices alias scratch and are valid only during the call;
// iteration stops on the first error.
//
// Both sides' shared projections are translated into s's id space (one
// remap load per value inside the loop; the string lookups happen once
// per distinct value up front), radix-sorted, and merged.
func EachJoinRun(r, s *Bag, run func(rpos, spos []int32) error) error {
	if r.rows.N() == 0 || s.rows.N() == 0 {
		return nil
	}
	shared := r.schema.Intersect(s.schema)
	sharedPosR, err := r.schema.positions(shared)
	if err != nil {
		return err
	}
	sharedPosS, err := s.schema.positions(shared)
	if err != nil {
		return err
	}
	zw := len(sharedPosR)
	if zw == 0 {
		// Disjoint schemas: one run, the full cross product.
		allR := iotaInt32s(r.rows.N())
		defer table.PutInt32s(allR)
		allS := iotaInt32s(s.rows.N())
		defer table.PutInt32s(allS)
		return run(allR, allS)
	}

	// Shared-attribute keys for both sides, both in s's id space.
	keyR := table.GetRows(zw)
	defer table.PutRows(keyR)
	keyS := table.GetRows(zw)
	defer table.PutRows(keyS)
	// Pre-sized to the row count so append never regrows it — a deferred
	// PutInt32s(origR) would bind the original slice header and leak any
	// grown backing array out of the pool.
	origR := table.GetInt32s(r.rows.N())[:0]
	defer func() { table.PutInt32s(origR) }()

	remap := make([][]uint32, zw)
	for j, p := range sharedPosR {
		if r.cols[p] != s.cols[sharedPosS[j]] {
			remap[j] = table.RemapInto(r.cols[p], s.cols[sharedPosS[j]], table.GetUint32s(0))
		}
	}
	defer putRemaps(remap)

	w := r.rows.W
rloop:
	for i := 0; i < r.rows.N(); i++ {
		base := i * w
		mark := len(keyR.IDs)
		for j, p := range sharedPosR {
			id := r.rows.IDs[base+p]
			if m := remap[j]; m != nil {
				id = m[id]
				if id == table.MissingID {
					keyR.IDs = keyR.IDs[:mark]
					continue rloop // value unknown to s: no partner exists
				}
			}
			keyR.IDs = append(keyR.IDs, id)
		}
		keyR.Counts = append(keyR.Counts, 1)
		origR = append(origR, int32(i))
	}
	sw := s.rows.W
	for i := 0; i < s.rows.N(); i++ {
		base := i * sw
		for _, p := range sharedPosS {
			keyS.IDs = append(keyS.IDs, s.rows.IDs[base+p])
		}
		keyS.Counts = append(keyS.Counts, 1)
	}

	permR := table.GetInt32s(keyR.N())
	defer table.PutInt32s(permR)
	permS := table.GetInt32s(keyS.N())
	defer table.PutInt32s(permS)
	table.SortPerm(keyR, permR)
	table.SortPerm(keyS, permS)

	ri, si := 0, 0
	for ri < len(permR) && si < len(permS) {
		cmp := compareRows(keyR, int(permR[ri]), keyS, int(permS[si]))
		if cmp < 0 {
			ri++
			continue
		}
		if cmp > 0 {
			si++
			continue
		}
		// Find both runs of this key.
		rEnd := ri + 1
		for rEnd < len(permR) && table.RowsEqual(keyR, int(permR[ri]), keyR, int(permR[rEnd])) {
			rEnd++
		}
		sEnd := si + 1
		for sEnd < len(permS) && table.RowsEqual(keyS, int(permS[si]), keyS, int(permS[sEnd])) {
			sEnd++
		}
		// The merge never looks behind rEnd again, so the run's entries
		// can be turned from key indices into r's row positions in place.
		for a := ri; a < rEnd; a++ {
			permR[a] = origR[permR[a]]
		}
		if err := run(permR[ri:rEnd], permS[si:sEnd]); err != nil {
			return err
		}
		ri, si = rEnd, sEnd
	}
	return nil
}

// iotaInt32s returns a pooled buffer holding 0..n-1.
func iotaInt32s(n int) []int32 {
	s := table.GetInt32s(n)
	for i := range s {
		s[i] = int32(i)
	}
	return s
}

// compareRows orders row a of ra against row b of rb lexicographically.
func compareRows(ra *table.Rows, a int, rb *table.Rows, b int) int {
	w := ra.W
	for j := 0; j < w; j++ {
		x := ra.IDs[a*w+j]
		y := rb.IDs[b*w+j]
		if x != y {
			if x < y {
				return -1
			}
			return 1
		}
	}
	return 0
}

// SupportSize is ‖R‖supp = |R'|.
func (b *Bag) SupportSize() int { return b.Len() }

// MultiplicityBound is ‖R‖mu = max multiplicity in the support (0 for the
// empty bag).
func (b *Bag) MultiplicityBound() int64 {
	var m int64
	for _, c := range b.rows.Counts {
		if c > m {
			m = c
		}
	}
	return m
}

// MultiplicitySize is ‖R‖mb = max over the support of log2(R(r)+1).
func (b *Bag) MultiplicitySize() float64 {
	var m float64
	for _, c := range b.rows.Counts {
		if v := math.Log2(float64(c) + 1); v > m {
			m = v
		}
	}
	return m
}

// UnarySize is ‖R‖u = Σ R(r), the total multiplicity (multiset cardinality).
func (b *Bag) UnarySize() (int64, error) {
	var total int64
	for _, c := range b.rows.Counts {
		t, err := checkedAdd(total, c)
		if err != nil {
			return 0, err
		}
		total = t
	}
	return total, nil
}

// BinarySize is ‖R‖b = Σ log2(R(r)+1), the bit size of the multiplicities.
func (b *Bag) BinarySize() float64 {
	var total float64
	for _, c := range b.rows.Counts {
		total += math.Log2(float64(c) + 1)
	}
	return total
}

// String renders the bag in the tabular form used by the paper:
//
//	A B #
//	a1 b1 : 2
//	a2 b2 : 1
func (b *Bag) String() string {
	var sb strings.Builder
	sb.WriteString(strings.Join(b.schema.attrs, " "))
	if b.schema.Len() > 0 {
		sb.WriteString(" ")
	}
	sb.WriteString("#\n")
	vals := make([]string, b.rows.W)
	for _, pos := range b.orderedRows() {
		b.resolveRow(int(pos), vals)
		if len(vals) > 0 {
			sb.WriteString(strings.Join(vals, " "))
			sb.WriteString(" ")
		}
		fmt.Fprintf(&sb, ": %d\n", b.rows.Counts[pos])
	}
	return sb.String()
}

// Sum returns the bag a ⊎ b with pointwise-added multiplicities. The
// schemas must be equal.
func Sum(a, b *Bag) (*Bag, error) {
	if !a.schema.Equal(b.schema) {
		return nil, fmt.Errorf("bag: sum of bags over %v and %v", a.schema, b.schema)
	}
	out := a.Clone()
	err := b.Each(func(t Tuple, count int64) error {
		return out.AddTuple(t, count)
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// ScalarMul returns the bag with every multiplicity multiplied by k ≥ 0
// (k = 0 yields the empty bag).
func ScalarMul(b *Bag, k int64) (*Bag, error) {
	if k < 0 {
		return nil, fmt.Errorf("bag: negative scalar %d", k)
	}
	out := New(b.schema)
	if k == 0 {
		return out, nil
	}
	err := b.Each(func(t Tuple, count int64) error {
		c, err := checkedMul(count, k)
		if err != nil {
			return err
		}
		return out.AddTuple(t, c)
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
