package core

import (
	"context"
	"fmt"

	"bagconsistency/internal/bag"
	"bagconsistency/internal/hypergraph"
	"bagconsistency/internal/ilp"
	"bagconsistency/internal/trace"
)

// Method identifies which algorithm decided a global-consistency query.
type Method string

const (
	// MethodAcyclic is the polynomial-time join-tree composition of
	// Theorem 6 (pairwise consistency check + running-intersection witness
	// construction).
	MethodAcyclic Method = "acyclic-jointree"
	// MethodILP is the exact integer search over P(R1,...,Rm), the general
	// NP procedure of Corollary 3. It decides cyclic schemas whose GYO
	// reduction removes no edge (a pure cyclic core), and every schema
	// under ForceILP.
	MethodILP Method = "integer-program"
	// MethodPairwiseRefuted means a pairwise inconsistency already refutes
	// global consistency, regardless of the schema's shape.
	MethodPairwiseRefuted Method = "pairwise-refuted"
	// MethodHybrid is the decomposition-hybrid procedure on the remaining
	// cyclic schemas: GYO strips the acyclic fringe, the integer search
	// runs on the cyclic core only, and the fringe is reattached by the
	// polynomial pairwise composition.
	MethodHybrid Method = "hybrid-decomposition"
)

// GlobalOptions is the single configuration surface for the decision
// procedures: it flattens the integer-search tuning knobs (formerly an
// embedded ilp.Options) next to the structural ones so every layer — the
// public pkg/bagconsist facade, the CLIs, and the experiments — speaks one
// config type.
type GlobalOptions struct {
	// ForceILP skips the GYO dispatch and runs the monolithic integer
	// search over the whole program P(R1,...,Rm) on every schema: the
	// ablation, and the reference the decomposition is tested against.
	ForceILP bool
	// SkipWitnessMinimization keeps the raw flow witnesses during the
	// pairwise composition (acyclic schemas and the hybrid's fringe)
	// rather than minimal ones. It is a measurement arm only; the public
	// Checker cannot set it. The Theorem 6 support bound is only
	// guaranteed with minimization on, and skipping it saves no time:
	// on acyclic checks of path and star schemas at support 128 the raw
	// Dinic witnesses take 2.4–3.3x as long as the minimal ones (2-vCPU
	// x86-64 container).
	SkipWitnessMinimization bool
	// MaxNodes bounds the integer search on the cyclic path (0 means
	// ilp.DefaultMaxNodes).
	MaxNodes int64
}

// ILP projects the options onto the integer-search tuning knobs.
func (o GlobalOptions) ILP() ilp.Options {
	return ilp.Options{MaxNodes: o.MaxNodes}
}

// Decision is the outcome of a global consistency query.
type Decision struct {
	// Consistent reports whether the collection is globally consistent.
	Consistent bool
	// Witness is a bag witnessing consistency when Consistent (both
	// decision methods construct one).
	Witness *bag.Bag
	// Method says which procedure ran.
	Method Method
	// Nodes is the number of search nodes (MethodILP and MethodHybrid).
	Nodes int64
}

// GloballyConsistent decides whether the collection is globally consistent
// (the GCPB(H) problem of Section 5.2) and constructs a witness when it is.
//
// One GYO reduction (CoreDecomposition) picks the procedure. On acyclic
// schemas it runs the polynomial algorithm of Theorem 6. On cyclic schemas
// it first refutes by pairwise inconsistency when possible; otherwise it
// solves an integer program exactly — the NP-complete regime of Theorem
// 4, with an explicit node budget. A pure cyclic core solves P(R1,...,Rm)
// itself; a schema with an acyclic fringe solves only its core's program
// and composes the fringe around that witness (MethodHybrid).
func (c *Collection) GloballyConsistent(opts GlobalOptions) (*Decision, error) {
	return c.GloballyConsistentContext(context.Background(), opts)
}

// GloballyConsistentContext is GloballyConsistent with cooperative
// cancellation: both the acyclic composition and the integer search poll
// ctx and unwind with ctx.Err() once it is done.
func (c *Collection) GloballyConsistentContext(ctx context.Context, opts GlobalOptions) (*Decision, error) {
	if len(c.bags) == 0 {
		return nil, fmt.Errorf("core: empty collection")
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	var elim []hypergraph.Elimination
	var core []int
	if !opts.ForceILP {
		elim, core = c.hg.CoreDecomposition()
		if len(core) <= 1 {
			actx, span := trace.Start(ctx, trace.SpanAcyclic)
			w, ok, err := c.WitnessAcyclicContext(actx, opts)
			span.End()
			if err != nil {
				return nil, err
			}
			return &Decision{Consistent: ok, Witness: w, Method: MethodAcyclic}, nil
		}
	}

	// Cheap necessary condition first.
	_, pwSpan := trace.Start(ctx, trace.SpanPairwise)
	pw, err := c.PairwiseConsistent()
	pwSpan.End()
	if err != nil {
		return nil, err
	}
	if !pw {
		return &Decision{Consistent: false, Method: MethodPairwiseRefuted}, nil
	}

	if len(elim) == 0 {
		return c.solveProgram(ctx, opts)
	}
	return c.solveHybrid(ctx, elim, core, opts)
}

// solveProgram runs the exact integer search over the whole collection's
// program P(R1,...,Rm) and decodes any solution into a witness bag. The
// caller has already established pairwise consistency.
func (c *Collection) solveProgram(ctx context.Context, opts GlobalOptions) (*Decision, error) {
	_, buildSpan := trace.Start(ctx, trace.SpanProgram)
	p, j, err := c.BuildProgram()
	if p != nil {
		buildSpan.SetCounter("rows", int64(p.M))
		buildSpan.SetCounter("columns", int64(len(p.Cols)))
	}
	buildSpan.End()
	if err != nil {
		return nil, err
	}
	if len(p.Cols) == 0 {
		if emptyProgramConsistent(p) {
			w, err := witnessBag(j, nil)
			if err != nil {
				return nil, err
			}
			return &Decision{Consistent: true, Witness: w, Method: MethodILP}, nil
		}
		return &Decision{Consistent: false, Method: MethodILP}, nil
	}
	sol, err := ilp.SolveContext(ctx, p, opts.ILP())
	if err != nil {
		return nil, err
	}
	if !sol.Feasible {
		return &Decision{Consistent: false, Method: MethodILP, Nodes: sol.Nodes}, nil
	}
	w, err := witnessBag(j, sol.X)
	if err != nil {
		return nil, err
	}
	return &Decision{Consistent: true, Witness: w, Method: MethodILP, Nodes: sol.Nodes}, nil
}

// WitnessAcyclic runs the polynomial witness construction of Theorem 6 on
// an acyclic schema: compute a running intersection order from a join
// tree, test each bag's consistency with its join-tree parent, and
// compose minimal pairwise witnesses T_i = witness(T_{i-1}, R_{σ(i)})
// along the order. When the collection is consistent the returned witness
// has support size at most the sum of the input support sizes (Corollary
// 4 bound applied inductively).
//
// The m-1 (parent, child) tests decide pairwise consistency of the whole
// collection: they are exactly what each composition step needs (Step 1
// of the Theorem 2 proof), and the composed witness then witnesses every
// other pair. It returns ok = false (with nil witness) when the
// collection is not pairwise consistent, and an error if the schema is
// cyclic.
func (c *Collection) WitnessAcyclic(opts GlobalOptions) (*bag.Bag, bool, error) {
	return c.WitnessAcyclicContext(context.Background(), opts)
}

// WitnessAcyclicContext is WitnessAcyclic with cooperative cancellation,
// polled between composition steps and, inside a step, by the minimal
// pair witness kernel once per transportation block and every few
// hundred arcs within one.
func (c *Collection) WitnessAcyclicContext(ctx context.Context, opts GlobalOptions) (*bag.Bag, bool, error) {
	t, err := hypergraph.BuildJoinTree(c.hg)
	if err != nil {
		return nil, false, fmt.Errorf("core: WitnessAcyclic on cyclic schema: %w", err)
	}
	order, parent, err := t.RootedOrder(0)
	if err != nil {
		return nil, false, err
	}
	for k := 1; k < len(order); k++ {
		ok, err := PairConsistent(c.bags[parent[k]], c.bags[order[k]])
		if err != nil || !ok {
			return nil, false, err
		}
	}
	acc := c.bags[order[0]] // each step builds a new bag on its inputs' dictionaries
	if len(order) == 1 {
		acc = acc.Clone() // the witness is never an input
	}
	w, err := c.compose(ctx, acc, order[1:], opts)
	if err != nil {
		return nil, false, err
	}
	return w, true, nil
}

// compose is the compose-and-check loop of the acyclic composition and the
// hybrid's fringe: it replaces acc, in turn, by a pairwise witness of acc
// and each bag listed in idx (minimal unless SkipWitnessMinimization), and
// polls ctx between steps. Callers list the bags so each meets acc only
// inside one bag acc already covers — a RIP order, or the reversed GYO
// eliminations — and Step 1 of the Theorem 2 proof then makes every step
// succeed on a pairwise consistent collection, so a failed step is an
// error.
func (c *Collection) compose(ctx context.Context, acc *bag.Bag, idx []int, opts GlobalOptions) (*bag.Bag, error) {
	witnessOf := MinimalPairWitnessContext
	if opts.SkipWitnessMinimization {
		witnessOf = func(_ context.Context, r, s *bag.Bag) (*bag.Bag, bool, error) {
			return PairWitness(r, s)
		}
	}
	for _, i := range idx {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		next, ok, err := witnessOf(ctx, acc, c.bags[i])
		if err != nil {
			return nil, err
		}
		if !ok {
			return nil, fmt.Errorf("core: composition lost consistency at edge %d", i)
		}
		acc = next
	}
	return acc, nil
}
