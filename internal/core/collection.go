package core

import (
	"context"
	"fmt"

	"bagconsistency/internal/bag"
	"bagconsistency/internal/hypergraph"
	"bagconsistency/internal/ilp"
	"bagconsistency/internal/table"
)

// Collection is a collection of bags over a hypergraph schema: bag i is
// defined over the attribute set of hyperedge i. This is the "collection of
// bags over H" of Section 4 of the paper.
type Collection struct {
	hg   *hypergraph.Hypergraph
	bags []*bag.Bag
}

// NewCollection validates that the bags' schemas match the hyperedges index
// by index and returns the collection.
func NewCollection(h *hypergraph.Hypergraph, bags []*bag.Bag) (*Collection, error) {
	if h.NumEdges() != len(bags) {
		return nil, fmt.Errorf("core: %d bags for %d hyperedges", len(bags), h.NumEdges())
	}
	for i, b := range bags {
		want, err := bag.NewSchema(h.Edge(i)...)
		if err != nil {
			return nil, err
		}
		if !b.Schema().Equal(want) {
			return nil, fmt.Errorf("core: bag %d has schema %v, hyperedge is %v", i, b.Schema(), want)
		}
	}
	return &Collection{hg: h, bags: bags}, nil
}

// NewCollection2 wraps two bags as a collection over the two-edge
// hypergraph of their schemas.
func NewCollection2(r, s *bag.Bag) (*Collection, error) {
	h, err := hypergraph.New([][]string{r.Schema().Attrs(), s.Schema().Attrs()})
	if err != nil {
		return nil, err
	}
	return NewCollection(h, []*bag.Bag{r, s})
}

// CollectionFromMarginals builds the collection over h obtained by taking
// the marginal of a single global bag on every hyperedge. By construction
// the result is globally consistent with witness global.
func CollectionFromMarginals(h *hypergraph.Hypergraph, global *bag.Bag) (*Collection, error) {
	bags := make([]*bag.Bag, h.NumEdges())
	for i := 0; i < h.NumEdges(); i++ {
		s, err := bag.NewSchema(h.Edge(i)...)
		if err != nil {
			return nil, err
		}
		m, err := global.Marginal(s)
		if err != nil {
			return nil, err
		}
		bags[i] = m
	}
	return NewCollection(h, bags)
}

// Hypergraph returns the schema hypergraph.
func (c *Collection) Hypergraph() *hypergraph.Hypergraph { return c.hg }

// Len returns the number of bags.
func (c *Collection) Len() int { return len(c.bags) }

// Bag returns bag i.
func (c *Collection) Bag(i int) *bag.Bag { return c.bags[i] }

// Bags returns the bag list (shared, not copied).
func (c *Collection) Bags() []*bag.Bag { return c.bags }

// UnionSchema returns the union of all bag schemas (the attribute set
// X1 ∪ ... ∪ Xm).
func (c *Collection) UnionSchema() (*bag.Schema, error) {
	return bag.NewSchema(c.hg.Vertices()...)
}

// PairwiseConsistent reports whether every two bags of the collection are
// consistent, via the Lemma 2 marginal test. This is the polynomial-time
// necessary condition for global consistency, and over acyclic schemas it
// is also sufficient (Theorem 2).
func (c *Collection) PairwiseConsistent() (bool, error) {
	for i := 0; i < len(c.bags); i++ {
		for j := i + 1; j < len(c.bags); j++ {
			ok, err := PairConsistent(c.bags[i], c.bags[j])
			if err != nil {
				return false, err
			}
			if !ok {
				return false, nil
			}
		}
	}
	return true, nil
}

// InconsistentPair returns the indices of the first inconsistent pair, or
// (-1, -1) if the collection is pairwise consistent.
func (c *Collection) InconsistentPair() (int, int, error) {
	for i := 0; i < len(c.bags); i++ {
		for j := i + 1; j < len(c.bags); j++ {
			ok, err := PairConsistent(c.bags[i], c.bags[j])
			if err != nil {
				return -1, -1, err
			}
			if !ok {
				return i, j, nil
			}
		}
	}
	return -1, -1, nil
}

// Sub returns the sub-collection with the bags at the given edge indices,
// over the hypergraph with exactly those hyperedges (vertices restricted to
// their union).
func (c *Collection) Sub(indices []int) (*Collection, error) {
	var edges [][]string
	var bags []*bag.Bag
	for _, i := range indices {
		if i < 0 || i >= len(c.bags) {
			return nil, fmt.Errorf("core: bag index %d out of range", i)
		}
		edges = append(edges, c.hg.Edge(i))
		bags = append(bags, c.bags[i])
	}
	h, err := hypergraph.New(edges)
	if err != nil {
		return nil, err
	}
	return NewCollection(h, bags)
}

// KWiseConsistent reports whether every sub-collection of at most k bags is
// globally consistent (the k-wise consistency of Section 4). Note 2-wise
// consistency equals pairwise consistency and m-wise equals global. The
// check enumerates subsets, deciding each with opts; it is exponential in k
// and intended for verification on small collections.
func (c *Collection) KWiseConsistent(k int, opts GlobalOptions) (bool, error) {
	return c.KWiseConsistentContext(context.Background(), k, opts)
}

// KWiseConsistentContext is KWiseConsistent with cooperative cancellation,
// polled on every sub-collection decision.
func (c *Collection) KWiseConsistentContext(ctx context.Context, k int, opts GlobalOptions) (bool, error) {
	m := len(c.bags)
	if k < 1 {
		return false, fmt.Errorf("core: k must be ≥ 1, got %d", k)
	}
	var indices []int
	var rec func(start, left int) (bool, error)
	rec = func(start, left int) (bool, error) {
		if len(indices) >= 2 {
			sub, err := c.Sub(indices)
			if err != nil {
				return false, err
			}
			dec, err := sub.GloballyConsistentContext(ctx, opts)
			if err != nil {
				return false, err
			}
			if !dec.Consistent {
				return false, nil
			}
		}
		if left == 0 || start >= m {
			return true, nil
		}
		for i := start; i < m; i++ {
			indices = append(indices, i)
			ok, err := rec(i+1, left-1)
			indices = indices[:len(indices)-1]
			if err != nil || !ok {
				return ok, err
			}
		}
		return true, nil
	}
	return rec(0, k)
}

// VerifyWitness reports whether w marginalizes onto every bag of the
// collection, i.e. whether w witnesses global consistency.
func (c *Collection) VerifyWitness(w *bag.Bag) (bool, error) {
	union, err := c.UnionSchema()
	if err != nil {
		return false, err
	}
	if !w.Schema().Equal(union) {
		return false, nil
	}
	for _, b := range c.bags {
		m, err := w.Marginal(b.Schema())
		if err != nil {
			return false, err
		}
		if !m.Equal(b) {
			return false, nil
		}
	}
	return true, nil
}

// BuildProgram constructs the integer program P(R1,...,Rm) of Equation
// (14): one variable x_t per tuple t ∈ J = R1'⋈...⋈Rm', and for every i
// and every support tuple r of Ri the constraint Σ_{t: t[Xi]=r} x_t =
// Ri(r). Rows come bag by bag, each bag's in display order; columns in
// J's display order. The second result is J with multiplicity 1: row j
// is column j's tuple on the dictionary of the first bag holding each
// attribute (as bag.UnionLayout picks), for callers to decode.
func (c *Collection) BuildProgram() (*ilp.Problem, bag.View, error) {
	m := len(c.bags)
	if m == 0 {
		return nil, bag.View{}, fmt.Errorf("core: empty collection")
	}
	union := c.bags[0].Schema()
	for _, b := range c.bags[1:] {
		union = union.Union(b.Schema())
	}
	w := union.Len()
	views := make([]bag.View, m)
	upos := make([][]int, m)      // bag i's column k is attribute upos[i][k] of union
	home := make([]homeColumn, w) // each attribute's first bag column
	rowBase := make([]int, m+1)   // bag i's constraint rows start at rowBase[i]
	for i, b := range c.bags {
		v := b.View()
		views[i], upos[i], rowBase[i+1] = v, make([]int, v.Rows.W), rowBase[i]+v.Rows.N()
		for k, a := range v.Schema.Attrs() {
			if upos[i][k] = union.Pos(a); home[upos[i][k]].w == 0 {
				home[upos[i][k]] = homeColumn{ids: v.Rows.IDs, w: v.Rows.W, col: k, bag: i}
			}
		}
	}
	n, pos := joinIDs(views, upos, home)
	defer table.PutInt32s(pos)
	ranks, release := rankTables(views)
	defer release()
	rowOf := table.GetInt32s(rowBase[m]) // the constraint row of every bag row
	defer table.PutInt32s(rowOf)
	b := make([]int64, rowBase[m])
	for i, v := range views {
		order := sortByRanks(v.Rows.IDs, v.Rows.N(), ranks[i])
		for x, r := range order {
			rowOf[rowBase[i]+int(r)] = int32(rowBase[i] + x)
			b[rowBase[i]+x] = v.Rows.Counts[r]
		}
		table.PutInt32s(order)
	}

	ids := table.GetUint32s(n * w) // J in join order
	defer table.PutUint32s(ids)
	homeRanks, dicts := make([][]uint32, w), make([]*table.Dict, w)
	for u, h := range home {
		for t := 0; t < n; t++ {
			ids[t*w+u] = h.ids[int(pos[t*m+h.bag])*h.w+h.col]
		}
		homeRanks[u], dicts[u] = ranks[h.bag][h.col], views[h.bag].Cols[h.col]
	}
	order := sortByRanks(ids, n, homeRanks)
	defer table.PutInt32s(order)
	// Every column touches one row per bag: the row lists are slices of
	// one backing array, capped so no list can grow into the next.
	jrows := &table.Rows{W: w, IDs: make([]uint32, n*w), Counts: make([]int64, n)}
	cols := make([][]int, n)
	backing := make([]int, n*m)
	for j, t := range order {
		copy(jrows.IDs[j*w:(j+1)*w], ids[int(t)*w:int(t+1)*w])
		jrows.Counts[j] = 1
		cols[j] = backing[j*m : (j+1)*m : (j+1)*m]
		for i := range cols[j] {
			cols[j][i] = int(rowOf[rowBase[i]+int(pos[int(t)*m+i])])
		}
	}
	p := &ilp.Problem{M: rowBase[m], Cols: cols, B: b}
	if rowBase[m] == 0 {
		// All bags empty: a single trivially satisfied row keeps the
		// ilp.Problem well-formed.
		p = &ilp.Problem{M: 1, Cols: nil, B: []int64{0}}
	}
	return p, bag.View{Schema: union, Cols: dicts, Rows: jrows}, nil
}

// homeColumn is where J reads an attribute's ids: column col of bag bag.
type homeColumn struct {
	ids         []uint32
	w, col, bag int
}

// joinIDs computes J = R1'⋈...⋈Rm' on the bags' id columns: n tuples,
// tuple t's row in bag i at pos[t*m+i] (pooled). Partial tuples are
// extended bag by bag, so the intermediate results are the joins of the
// bags' prefixes. Bag i's rows are grouped by its key, the attributes
// already bound, and a partial tuple finds its group through a hash
// index, its key translated where bag i's dictionary differs from home.
func joinIDs(views []bag.View, upos [][]int, home []homeColumn) (n int, pos []int32) {
	m := len(views)
	n, pos = 1, table.GetInt32s(m)
	for i, v := range views {
		var keyCol []int
		var keySrc []homeColumn
		var remaps [][]uint32 // nil where bag i shares the home dictionary
		for k, u := range upos[i] {
			if h := home[u]; h.bag < i {
				var remap []uint32
				if d := views[h.bag].Cols[h.col]; d != v.Cols[k] {
					remap = table.Remap(d, v.Cols[k])
				}
				keyCol, keySrc, remaps = append(keyCol, k), append(keySrc, h), append(remaps, remap)
			}
		}
		keys := table.GetRows(len(keyCol))
		for r := 0; r < v.Rows.N(); r++ {
			for _, k := range keyCol {
				keys.IDs = append(keys.IDs, v.Rows.IDs[r*v.Rows.W+k])
			}
		}
		perm := table.GetInt32s(v.Rows.N())
		table.SortPerm(keys, perm)
		// Group g, the g-th distinct key, has the rows perm[start[g]:start[g+1]].
		groups := table.GetRows(len(keyCol))
		start := table.GetInt32s(len(perm) + 1)[:0]
		table.Runs(keys, perm, func(s, _ int) {
			groups.Append(keys.Row(int(perm[s])), 1)
			start = append(start, int32(s))
		})
		start = append(start, int32(len(perm)))
		index := table.NewIndex(groups.N())
		index.Rebuild(groups)

		// Count the matches first so the next buffer is sized exactly.
		group := table.GetInt32s(n) // each partial tuple's key group, or -1
		key := make([]uint32, len(keySrc))
		total := 0
		for t := range group {
			for x, h := range keySrc {
				if key[x] = h.ids[int(pos[t*m+h.bag])*h.w+h.col]; remaps[x] != nil {
					key[x] = remaps[x][key[x]]
				}
			}
			group[t] = int32(index.Find(groups, key))
			if g := group[t]; g >= 0 {
				total += int(start[g+1] - start[g])
			}
		}
		next := table.GetInt32s(total * m)
		o := 0
		for t, g := range group {
			if g < 0 {
				continue
			}
			for _, r := range perm[start[g]:start[g+1]] {
				copy(next[o*m:o*m+i], pos[t*m:t*m+i])
				next[o*m+i] = r
				o++
			}
		}
		table.PutInt32s(pos)
		n, pos = total, next
		table.PutInt32s(group)
		table.PutInt32s(start)
		table.PutRows(groups)
		table.PutInt32s(perm)
		table.PutRows(keys)
	}
	return n, pos
}

// rankTables returns ranks[i][k], the display rank of every id column k
// of bag i holds: one pooled table per dictionary (bag.DisplayRanks),
// which release returns.
func rankTables(views []bag.View) (ranks [][][]uint32, release func()) {
	byDict := make(map[*table.Dict][]uint32)
	ranks = make([][][]uint32, len(views))
	for i, v := range views {
		ranks[i] = make([][]uint32, v.Rows.W)
		for k, d := range v.Cols {
			rank, ok := byDict[d]
			if !ok {
				rank = table.GetUint32s(d.Len())
				clear(rank)
				byDict[d] = rank
			}
			for r := 0; r < v.Rows.N(); r++ {
				rank[v.Rows.IDs[r*v.Rows.W+k]] = 1 // used
			}
			ranks[i][k] = rank
		}
	}
	for d, rank := range byDict {
		bag.DisplayRanks(d, rank)
	}
	return ranks, func() {
		for _, rank := range byDict {
			table.PutUint32s(rank)
		}
	}
}

// sortByRanks returns, pooled, the n rows of ids (width len(ranks)) in
// display order: by rank vector, ranks[k] ranking column k.
func sortByRanks(ids []uint32, n int, ranks [][]uint32) []int32 {
	w := len(ranks)
	keys := table.GetRows(w)
	defer table.PutRows(keys)
	for r := 0; r < n; r++ {
		for k, rank := range ranks {
			keys.IDs = append(keys.IDs, rank[ids[r*w+k]])
		}
	}
	perm := table.GetInt32s(n)
	table.SortPerm(keys, perm)
	return perm
}

// witnessBag decodes a solution x of BuildProgram's program into a bag
// on the dictionaries of its join j: row j of j times x_j, in order.
func witnessBag(j bag.View, x []int64) (*bag.Bag, error) {
	w, err := bag.NewShared(j.Schema, j.Cols, 0)
	for col, v := range x {
		if err == nil && v > 0 {
			err = w.AddIDs(j.Rows.Row(col), v)
		}
	}
	return w, err
}

// columnTuple decodes column col of BuildProgram's join j.
func columnTuple(j bag.View, col int) bag.Tuple {
	vals := make([]string, j.Rows.W)
	for k, id := range j.Rows.Row(col) {
		vals[k] = j.Cols[k].Value(id)
	}
	return bag.MustTuple(j.Schema, vals...) // a row of j has j.Schema's width
}
