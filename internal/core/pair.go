package core

import (
	"context"
	"fmt"
	"math"
	"math/big"

	"bagconsistency/internal/bag"
	"bagconsistency/internal/ilp"
	"bagconsistency/internal/lp"
	"bagconsistency/internal/maxflow"
	"bagconsistency/internal/table"
	"bagconsistency/internal/trace"
)

// PairConsistent reports whether two bags are consistent, using the
// polynomial test of Lemma 2: R(X) and S(Y) are consistent iff
// R[X∩Y] = S[X∩Y] under bag (marginal) semantics.
func PairConsistent(r, s *bag.Bag) (bool, error) {
	z := r.Schema().Intersect(s.Schema())
	rz, err := r.Marginal(z)
	if err != nil {
		return false, err
	}
	sz, err := s.Marginal(z)
	if err != nil {
		return false, err
	}
	return rz.Equal(sz), nil
}

// pairNetwork is the network N(R,S) of Section 3: a source with an arc of
// capacity R(r) to each support tuple of R, an arc of capacity S(s) from
// each support tuple of S to the sink, and a "middle" arc t[X] -> t[Y]
// for every t in the join of the supports.
//
// The construction is fully integer-keyed: support rows of R and S are
// network nodes by their columnar row position (no Tuple.Key() strings,
// no map[string] anywhere), the middle arcs come straight from the
// sort-merge join over interned ids, and a middle arc's capacity is
// min(R(r), S(s)) — already an upper bound on any flow it can carry, so
// the max-flow value is unchanged versus the paper's "infinite" capacity
// while the int64 overflow hazard of a wantR+1 sentinel is gone.
type pairNetwork struct {
	nw *maxflow.Network
	r  *bag.Bag
	s  *bag.Bag
	rv bag.View
	sv bag.View
	// middle[i] is the edge id of the i-th middle arc; it connects the
	// support rows pairR[i] of R and pairS[i] of S.
	middle []int
	pairR  []int32
	pairS  []int32
	// want is the saturation target: total multiplicity of R (= of S when
	// consistent).
	wantR int64
	wantS int64
}

// unarySizeOf sums a view's multiplicities, failing with the typed
// overflow error when the total leaves int64.
func unarySizeOf(v bag.View, name string) (int64, error) {
	var total int64
	for _, c := range v.Rows.Counts {
		if total > math.MaxInt64-c {
			return 0, &OverflowError{Op: "total multiplicity of " + name}
		}
		total += c
	}
	return total, nil
}

// buildPairNetwork constructs N(R,S). The totals come first: they bound
// every flow value, so once they fit in int64 no arc can overflow one.
func buildPairNetwork(r, s *bag.Bag) (*pairNetwork, error) {
	rv, sv := r.View(), s.View()
	wantR, err := unarySizeOf(rv, "R")
	if err != nil {
		return nil, err
	}
	wantS, err := unarySizeOf(sv, "S")
	if err != nil {
		return nil, err
	}
	nR, nS := rv.Rows.N(), sv.Rows.N()
	n := 2 + nR + nS
	source := 0
	sink := n - 1
	nw, err := maxflow.NewNetwork(n, source, sink)
	if err != nil {
		return nil, err
	}
	nw.ReserveEdges(nR + nS)
	for i := 0; i < nR; i++ {
		if _, err := nw.AddEdge(source, 1+i, rv.Rows.Counts[i]); err != nil {
			return nil, err
		}
	}
	for j := 0; j < nS; j++ {
		if _, err := nw.AddEdge(1+nR+j, sink, sv.Rows.Counts[j]); err != nil {
			return nil, err
		}
	}
	pn := &pairNetwork{nw: nw, r: r, s: s, rv: rv, sv: sv, wantR: wantR, wantS: wantS}
	err = bag.EachJoinPair(r, s, func(rpos, spos int) error {
		id, err := nw.AddEdge(1+rpos, 1+nR+spos, min(rv.Rows.Counts[rpos], sv.Rows.Counts[spos]))
		if err != nil {
			return err
		}
		pn.middle = append(pn.middle, id)
		pn.pairR = append(pn.pairR, int32(rpos))
		pn.pairS = append(pn.pairS, int32(spos))
		return nil
	})
	if err != nil {
		return nil, err
	}
	return pn, nil
}

// saturated runs max flow and reports whether the flow saturates all source
// and sink arcs.
func (pn *pairNetwork) saturated() bool {
	if pn.wantR != pn.wantS {
		return false
	}
	return pn.nw.MaxFlow() == pn.wantR
}

// witness reads the bag T(XY) off the middle-arc flows after a saturated
// max-flow computation: T(t) = f(t[X], t[Y]) (proof of Lemma 2).
func (pn *pairNetwork) witness() (*bag.Bag, error) {
	wb := newWitnessBuilder(pn.r, pn.s, pn.rv, pn.sv, 0)
	defer wb.release()
	for i, id := range pn.middle {
		if f := pn.nw.Flow(id); f > 0 {
			wb.add(int(pn.pairR[i]), int(pn.pairS[i]), f)
		}
	}
	return wb.bag()
}

// witnessBuilder assembles a witness bag T(XY) from (support row of R,
// support row of S, multiplicity) triples, in the order they are added.
// Rows are built directly from the two views' interned ids using the
// union layout Join uses (bag.UnionLayout) and share the inputs'
// dictionaries. Distinct middle arcs yield distinct union tuples, so the
// rows need no deduplication.
type witnessBuilder struct {
	union  *bag.Schema
	srcs   []bag.UnionSrc
	cols   []*table.Dict
	rv, sv bag.View
	row    []uint32
	rows   table.Rows
}

// newWitnessBuilder prepares a builder for at most capRows rows (a
// sizing hint; 0 lets the buffers grow).
func newWitnessBuilder(r, s *bag.Bag, rv, sv bag.View, capRows int) witnessBuilder {
	union, srcs, cols := bag.UnionLayout(r, s)
	wb := witnessBuilder{union: union, srcs: srcs, cols: cols, rv: rv, sv: sv, row: table.GetUint32s(union.Len())}
	wb.rows.W = union.Len()
	if capRows > 0 {
		wb.rows.IDs = make([]uint32, 0, capRows*union.Len())
		wb.rows.Counts = make([]int64, 0, capRows)
	}
	return wb
}

func (wb *witnessBuilder) add(rpos, spos int, f int64) {
	rw, sw := wb.rv.Rows.W, wb.sv.Rows.W
	for oi, sc := range wb.srcs {
		if sc.FromR {
			wb.row[oi] = wb.rv.Rows.IDs[rpos*rw+sc.Pos]
		} else {
			wb.row[oi] = wb.sv.Rows.IDs[spos*sw+sc.Pos]
		}
	}
	wb.rows.Append(wb.row, f)
}

func (wb *witnessBuilder) bag() (*bag.Bag, error) {
	return bag.FromColumnar(wb.union, wb.cols, wb.rows)
}

func (wb *witnessBuilder) release() { table.PutUint32s(wb.row) }

// PairWitness determines whether two bags are consistent and, if so,
// constructs a bag T with T[X] = R and T[Y] = S using the integral max-flow
// construction of Lemma 2 / Corollary 1. It returns (nil, false, nil) when
// the bags are inconsistent.
func PairWitness(r, s *bag.Bag) (*bag.Bag, bool, error) {
	ok, err := PairConsistent(r, s)
	if err != nil || !ok {
		return nil, false, err
	}
	pn, err := buildPairNetwork(r, s)
	if err != nil {
		return nil, false, err
	}
	if !pn.saturated() {
		// Cannot happen when marginals agree (Lemma 2), so treat as an
		// internal invariant violation rather than "inconsistent".
		return nil, false, fmt.Errorf("core: marginals agree but network is unsaturated")
	}
	w, err := pn.witness()
	if err != nil {
		return nil, false, err
	}
	return w, true, nil
}

// MinimalPairWitness constructs a witness of the consistency of two bags
// whose support cannot be shrunk: no other witness has a support
// strictly contained in it (Section 5.3). By Theorem 5 its support size
// is at most ‖R‖supp + ‖S‖supp. The construction is the paper's
// self-reducibility loop over the middle arcs of N(R,S): visit each arc
// in order and delete it for good whenever a saturated flow still exists
// without it; the witness is the flow on the arcs that stay.
func MinimalPairWitness(r, s *bag.Bag) (*bag.Bag, bool, error) {
	return MinimalPairWitnessContext(context.Background(), r, s)
}

// MinimalPairWitnessContext is MinimalPairWitness with cooperative
// cancellation, polled once per transportation block and every
// ctxPollProbes arcs inside one.
//
// The loop runs per block. N(R,S) links r to s only when r[Z] = s[Z]
// for Z = X∩Y (Lemma 2), so it splits into independent complete
// bipartite transportation blocks, one per value of R[Z]; an arc's
// deletability depends on its own block alone. Each block starts from a
// dense staircase flow. An arc carrying no flow is deleted outright (the
// current flow already avoids it); an arc carrying f units is deleted
// iff an augmenting-path search inside the block reroutes those f units
// from its row to its column without it. The kept set depends only on
// the arc order and on feasibility, and the flow on an inclusion-minimal
// support is unique, so the witness — rows, multiplicities and row order
// (surviving arcs in middle-arc order) — is the one any exact
// implementation of the loop produces, whatever flow it starts from.
func MinimalPairWitnessContext(ctx context.Context, r, s *bag.Bag) (*bag.Bag, bool, error) {
	_, mSpan := trace.Start(ctx, trace.SpanMarginals)
	ok, err := PairConsistent(r, s)
	mSpan.End()
	if err != nil || !ok {
		return nil, false, err
	}
	_, bSpan := trace.Start(ctx, trace.SpanPairNet)
	pb, err := buildPairBlocks(r, s)
	bSpan.End()
	if err != nil {
		return nil, false, err
	}
	defer pb.release()
	_, fSpan := trace.Start(ctx, trace.SpanMaxflow)
	w, probes, augmentations, err := pb.minimalWitness(ctx, r, s)
	fSpan.SetCounter("augmentations", augmentations)
	fSpan.SetCounter("probes", probes)
	fSpan.End()
	if err != nil {
		return nil, false, err
	}
	return w, true, nil
}

// The remaining Pair* functions implement the other characterizations of
// Lemma 2; they exist so tests and the experiments harness can check the
// equivalences on real instances rather than trusting one code path.

// PairConsistentViaFlow decides consistency by testing whether N(R,S)
// admits a saturated flow (statement 5 of Lemma 2).
func PairConsistentViaFlow(r, s *bag.Bag) (bool, error) {
	pn, err := buildPairNetwork(r, s)
	if err != nil {
		return false, err
	}
	return pn.saturated(), nil
}

// PairConsistentViaLP decides consistency by rational feasibility of the
// linear program P(R,S) (statement 3 of Lemma 2).
func PairConsistentViaLP(r, s *bag.Bag) (bool, error) {
	p, _, err := buildPairProgram(r, s)
	if err != nil {
		return false, err
	}
	res, err := lp.Solve(p.M, p.Cols, ratRHS(p.B), nil)
	if err != nil {
		return false, err
	}
	return res.Feasible, nil
}

// ratRHS is an integral right-hand side in the exact form lp.Solve takes.
func ratRHS(b []int64) []*big.Rat {
	vals := make([]big.Rat, len(b))
	out := make([]*big.Rat, len(b))
	for i, v := range b {
		out[i] = vals[i].SetInt64(v)
	}
	return out
}

// PairConsistentViaILPContext decides consistency by integer
// feasibility of P(R,S) (statement 4 of Lemma 2), with cooperative
// cancellation of the integer search.
func PairConsistentViaILPContext(ctx context.Context, r, s *bag.Bag, opts ilp.Options) (bool, error) {
	p, _, err := buildPairProgram(r, s)
	if err != nil {
		return false, err
	}
	if len(p.Cols) == 0 {
		return emptyProgramConsistent(p), nil
	}
	sol, err := ilp.SolveContext(ctx, p, opts)
	if err != nil {
		return false, err
	}
	return sol.Feasible, nil
}

// emptyProgramConsistent handles the degenerate case of a program with no
// variables: it is feasible iff every right-hand side is zero (i.e. both
// bags are empty).
func emptyProgramConsistent(p *ilp.Problem) bool {
	for _, v := range p.B {
		if v != 0 {
			return false
		}
	}
	return true
}

// buildPairProgram builds P(R,S) of Equation (3): one variable per tuple of
// R'⋈S', one equality per support tuple of R and of S.
func buildPairProgram(r, s *bag.Bag) (*ilp.Problem, bag.View, error) {
	c, err := NewCollection2(r, s)
	if err != nil {
		return nil, bag.View{}, err
	}
	return c.BuildProgram()
}
