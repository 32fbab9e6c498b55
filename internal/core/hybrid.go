package core

import (
	"context"
	"strconv"

	"bagconsistency/internal/hypergraph"
	"bagconsistency/internal/trace"
)

// solveHybrid decides global consistency by decomposition: given the GYO
// reduction's eliminations (the acyclic fringe) and surviving core, the
// exact integer search runs only on the core and — when the core is
// consistent — the fringe is reattached around the core witness by the
// same pairwise composition the acyclic algorithm uses, in reverse
// elimination order.
//
// Soundness rests on two facts. Refutation: any witness of the whole
// collection marginalizes to a witness of the core sub-collection, so an
// infeasible core refutes the whole. Construction: when edge e was
// eliminated, every vertex e shares with the edges still alive at that
// moment lies in e's cover (CoreDecomposition's invariant); the running
// witness at reattachment time spans exactly those alive edges and
// marginalizes onto the cover's bag, which is pairwise consistent with
// e's bag — so the pairwise composition always succeeds. The caller has
// already established pairwise consistency of the whole collection.
func (c *Collection) solveHybrid(ctx context.Context, elim []hypergraph.Elimination, core []int, opts GlobalOptions) (*Decision, error) {
	sub, err := c.Sub(core)
	if err != nil {
		return nil, err
	}
	cctx, coreSpan := trace.Start(ctx, trace.SpanHybridCore)
	coreSpan.SetAttr("core_edges", strconv.Itoa(len(core)))
	coreSpan.SetAttr("fringe_edges", strconv.Itoa(len(elim)))
	dec, err := sub.solveProgram(cctx, opts)
	coreSpan.End()
	if err != nil {
		return nil, err
	}
	dec.Method = MethodHybrid
	if !dec.Consistent {
		return dec, nil
	}
	fringe := make([]int, len(elim))
	for i, e := range elim {
		fringe[len(elim)-1-i] = e.Edge
	}
	fctx, fringeSpan := trace.Start(ctx, trace.SpanHybridFringe)
	dec.Witness, err = c.compose(fctx, dec.Witness, fringe, opts)
	fringeSpan.End()
	if err != nil {
		return nil, err
	}
	return dec, nil
}
