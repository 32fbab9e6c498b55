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

// JoinAllSupports computes J = R1' ⋈ ... ⋈ Rm', the index set of the
// program P(R1,...,Rm). The result is a multiplicity-1 bag over the union
// schema. Its size can be exponential in m; this is inherent to the cyclic
// case (Theorem 4).
func (c *Collection) JoinAllSupports() (*bag.Bag, error) {
	if len(c.bags) == 0 {
		return nil, fmt.Errorf("core: empty collection")
	}
	acc := c.bags[0].SupportBag()
	for _, b := range c.bags[1:] {
		j, err := bag.Join(acc, b.SupportBag())
		if err != nil {
			return nil, err
		}
		acc = j
	}
	return acc, nil
}

// BuildProgram constructs the integer program P(R1,...,Rm) of Equation
// (14): one variable x_t per tuple t ∈ J = R1'⋈...⋈Rm', and for every i
// and every support tuple r of Ri the constraint Σ_{t: t[Xi]=r} x_t =
// Ri(r). Rows come bag by bag in collection order, Ri.Len() rows per bag.
// The returned tuple slice aligns with the problem's columns, so an
// integer solution can be decoded into a witnessing bag.
func (c *Collection) BuildProgram() (*ilp.Problem, []bag.Tuple, error) {
	j, err := c.JoinAllSupports()
	if err != nil {
		return nil, nil, err
	}
	// Row layout: bag 0's support tuples first (deterministic order), then
	// bag 1's, ... — the same layout the string-keyed construction used, so
	// the integer search explores an identical tree. Constraint rows are
	// located by columnar row position: project the join row's interned ids
	// onto each bag (through a per-column remap built once) and look the
	// row up in the bag's integer index. No Tuple.Key() strings exist.
	rowIdx := make([][]int32, len(c.bags)) // bag row position -> constraint row
	var b []int64
	row := 0
	for i, rb := range c.bags {
		v := rb.View()
		idx := make([]int32, v.Rows.N())
		for _, pos := range rb.OrderedPositions() {
			idx[pos] = int32(row)
			b = append(b, v.Rows.Counts[pos])
			row++
		}
		rowIdx[i] = idx
	}

	jv := j.View()
	jorder := j.OrderedPositions()
	// Materialize the column tuples from the one ordering pass; tuples[i]
	// is the join row at jorder[i] by construction, not by coincidence.
	tuples := make([]bag.Tuple, len(jorder))
	for i, jpos := range jorder {
		tuples[i] = j.TupleAt(int(jpos))
	}
	jw := jv.Rows.W

	// Per bag: where its attributes sit in the join schema, and the remap
	// from the join's dictionaries into the bag's.
	type proj struct {
		jpos  []int
		remap [][]uint32 // nil entry = shared dictionary
	}
	projs := make([]proj, len(c.bags))
	for i, rb := range c.bags {
		attrs := rb.Schema().Attrs()
		p := proj{jpos: make([]int, len(attrs)), remap: make([][]uint32, len(attrs))}
		bv := rb.View()
		for k, a := range attrs {
			jp := jv.Schema.Pos(a)
			if jp < 0 {
				return nil, nil, fmt.Errorf("core: bag %d attribute %q missing from join schema", i, a)
			}
			p.jpos[k] = jp
			if jv.Cols[jp] != bv.Cols[k] {
				p.remap[k] = table.Remap(jv.Cols[jp], bv.Cols[k])
			}
		}
		projs[i] = p
	}

	// Every column touches one row per bag: the row lists are slices of
	// one backing array, capped so no list can grow into the next.
	nb := len(c.bags)
	cols := make([][]int, len(tuples))
	backing := make([]int, len(tuples)*nb)
	projRow := table.GetUint32s(jw)
	defer table.PutUint32s(projRow)
	for tj, jpos := range jorder {
		rows := backing[tj*nb : (tj+1)*nb : (tj+1)*nb]
		base := int(jpos) * jw
		for i := range c.bags {
			p := &projs[i]
			ok := true
			for k, jp := range p.jpos {
				id := jv.Rows.IDs[base+jp]
				if m := p.remap[k]; m != nil {
					id = m[id]
					if id == table.MissingID {
						ok = false
						break
					}
				}
				projRow[k] = id
			}
			var pos int
			if ok {
				pos = c.bags[i].FindRowIDs(projRow[:len(p.jpos)])
			} else {
				pos = -1
			}
			if pos < 0 {
				return nil, nil, fmt.Errorf("core: join tuple projects outside bag %d support", i)
			}
			rows[i] = int(rowIdx[i][pos])
		}
		cols[tj] = rows
	}
	if row == 0 {
		// All bags empty: represent as a single trivially satisfied row so
		// the ilp.Problem stays well-formed.
		return &ilp.Problem{M: 1, Cols: nil, B: []int64{0}}, nil, nil
	}
	return &ilp.Problem{M: row, Cols: cols, B: b}, tuples, nil
}
