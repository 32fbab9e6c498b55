// Package ilp decides integer feasibility of the sparse 0/1 equality
// systems that arise as the programs P(R1,...,Rm) of the paper
// (Equation 14): find x ∈ Z≥0 with, for every row i, the sum of x_j over
// the columns j containing i equal to b_i.
//
// For m = 2 these systems are totally unimodular and the max-flow
// formulation of package maxflow is preferred; for m ≥ 3 deciding
// feasibility is NP-complete (Theorem 4 of the paper), so this package
// implements an exact branch-and-bound search with constraint propagation,
// an optional exact-LP relaxation bound, an explicit node budget (worst
// cases fail loudly instead of hanging), and complete enumeration of all
// solutions for the witness-counting experiments.
package ilp

import (
	"context"
	"errors"
	"fmt"
	"math/big"
	"strconv"

	"bagconsistency/internal/lp"
	"bagconsistency/internal/trace"
)

// ErrNodeLimit is returned when the search exceeds its node budget.
var ErrNodeLimit = errors.New("ilp: node budget exceeded")

// Problem is the system: for each row i in [0,M), Σ_{j : i ∈ Cols[j]} x_j
// = B[i], with x_j ≥ 0 integer. Every column must touch at least one row.
type Problem struct {
	// M is the number of rows (equality constraints).
	M int
	// Cols lists, for each variable, the rows it participates in with
	// coefficient 1.
	Cols [][]int
	// B is the right-hand side; entries must be non-negative.
	B []int64
}

// Options tunes the search.
type Options struct {
	// MaxNodes bounds the number of search nodes (0 means DefaultMaxNodes).
	MaxNodes int64
	// LPPruning enables the exact rational relaxation bound at every search
	// node. It can shrink the tree dramatically but each node becomes much
	// more expensive; the dichotomy benchmarks run with it off.
	LPPruning bool
	// Workers sets the number of concurrent search workers for Solve. 0 or
	// 1 runs the sequential search; n > 1 runs the work-stealing parallel
	// search of parallel.go. The feasibility verdict and the validity of
	// any returned witness are identical for every worker count; the
	// specific witness found and the node count may differ run to run.
	// Enumerate and Count always run sequentially (their deterministic
	// emission order is part of their contract).
	Workers int
}

// DefaultMaxNodes is the node budget used when Options.MaxNodes is 0.
const DefaultMaxNodes = 50_000_000

// Solution is the outcome of Solve.
type Solution struct {
	// Feasible reports whether an integer solution exists.
	Feasible bool
	// X is a feasible assignment (nil when infeasible).
	X []int64
	// Nodes is the number of search nodes explored. Under the parallel
	// search this varies run to run (workers race to the first solution);
	// it never exceeds MaxNodes by more than the worker count.
	Nodes int64
	// Steals counts frontier handoffs between workers (parallel search
	// only; 0 for the sequential path).
	Steals int64
	// Idles counts worker transitions into the idle state while waiting
	// for stealable work (parallel search only).
	Idles int64
}

// validate checks problem well-formedness.
func (p *Problem) validate() error {
	if p.M <= 0 {
		return fmt.Errorf("ilp: need at least one row")
	}
	if len(p.B) != p.M {
		return fmt.Errorf("ilp: B has %d entries, want %d", len(p.B), p.M)
	}
	for i, v := range p.B {
		if v < 0 {
			return fmt.Errorf("ilp: negative right-hand side b[%d] = %d", i, v)
		}
	}
	for j, rows := range p.Cols {
		if len(rows) == 0 {
			return fmt.Errorf("ilp: column %d touches no rows", j)
		}
		for _, r := range rows {
			if r < 0 || r >= p.M {
				return fmt.Errorf("ilp: column %d references row %d outside [0,%d)", j, r, p.M)
			}
		}
	}
	return nil
}

// Verify reports whether x satisfies the problem exactly.
func (p *Problem) Verify(x []int64) bool {
	if len(x) != len(p.Cols) {
		return false
	}
	sums := make([]int64, p.M)
	for j, rows := range p.Cols {
		if x[j] < 0 {
			return false
		}
		for _, r := range rows {
			sums[r] += x[j]
		}
	}
	for i, s := range sums {
		if s != p.B[i] {
			return false
		}
	}
	return true
}

// searcher holds the mutable search state.
type searcher struct {
	p        *Problem
	rowCols  [][]int // rows -> columns touching them
	opts     Options
	ctx      context.Context
	nodes    int64
	ticks    int64 // branch attempts, including ones that fail propagation
	maxNodes int64
}

// ctxCheckMask controls how often the search polls its context: every
// (ctxCheckMask+1) nodes. Nodes are cheap, so polling each one would be
// measurable; 1024 keeps cancellation latency well under a millisecond on
// any hardware that can run the search at all.
const ctxCheckMask = 1<<10 - 1

// state is one node's residuals and column activity. Columns are "active"
// while unassigned; assigning a column subtracts its value from residuals
// and deactivates it.
type state struct {
	residual []int64
	active   []bool
	nActive  []int // active column count per row
	x        []int64
}

func (s *state) clone() *state {
	c := &state{
		residual: append([]int64(nil), s.residual...),
		active:   append([]bool(nil), s.active...),
		nActive:  append([]int(nil), s.nActive...),
		x:        append([]int64(nil), s.x...),
	}
	return c
}

// Solve searches for one feasible integer solution.
func Solve(p *Problem, opts Options) (*Solution, error) {
	return SolveContext(context.Background(), p, opts)
}

// SolveContext is Solve with cooperative cancellation: the search polls ctx
// periodically and unwinds with ctx.Err() once it is done or past its
// deadline.
func SolveContext(ctx context.Context, p *Problem, opts Options) (*Solution, error) {
	ctx, span := trace.Start(ctx, trace.SpanILPSearch)
	defer span.End()
	sol, err := solveTraced(ctx, p, opts, span)
	if err != nil {
		span.SetAttr("error", err.Error())
		return nil, err
	}
	span.SetCounter("nodes", sol.Nodes)
	span.SetCounter("steals", sol.Steals)
	span.SetCounter("idles", sol.Idles)
	span.SetAttr("feasible", strconv.FormatBool(sol.Feasible))
	return sol, nil
}

func solveTraced(ctx context.Context, p *Problem, opts Options, span *trace.Span) (*Solution, error) {
	if opts.Workers > 1 {
		span.SetAttr("workers", strconv.Itoa(opts.Workers))
		return solveParallel(ctx, p, opts)
	}
	sr, st, err := newSearch(ctx, p, opts)
	if err != nil {
		return nil, err
	}
	var found []int64
	solved := false
	err = sr.dfs(st, nil, func(x []int64) error {
		// An explicit flag, not found != nil: the zero-column program's
		// solution is the empty slice, which append leaves nil.
		found = append([]int64(nil), x...)
		solved = true
		return errStop
	})
	if err != nil && !errors.Is(err, errStop) {
		if sr.nodes > 0 {
			span.SetCounter("nodes", sr.nodes)
		}
		return nil, err
	}
	if !solved {
		return &Solution{Feasible: false, Nodes: sr.nodes}, nil
	}
	return &Solution{Feasible: true, X: found, Nodes: sr.nodes}, nil
}

// Count enumerates every feasible solution, returning their number.
func Count(p *Problem, opts Options) (int64, error) {
	return CountContext(context.Background(), p, opts)
}

// CountContext is Count with cooperative cancellation.
func CountContext(ctx context.Context, p *Problem, opts Options) (int64, error) {
	var n int64
	err := EnumerateContext(ctx, p, opts, func(x []int64) error {
		n++
		return nil
	})
	return n, err
}

// Enumerate calls fn for every feasible solution, in a deterministic order.
// fn may return an error to stop early (it is propagated).
func Enumerate(p *Problem, opts Options, fn func(x []int64) error) error {
	return EnumerateContext(context.Background(), p, opts, fn)
}

// EnumerateContext is Enumerate with cooperative cancellation.
func EnumerateContext(ctx context.Context, p *Problem, opts Options, fn func(x []int64) error) error {
	sr, st, err := newSearch(ctx, p, opts)
	if err != nil {
		return err
	}
	return sr.dfs(st, nil, fn)
}

// errStop is a sentinel used by Solve to stop after the first solution.
var errStop = errors.New("ilp: stop")

func newSearch(ctx context.Context, p *Problem, opts Options) (*searcher, *state, error) {
	if err := p.validate(); err != nil {
		return nil, nil, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	rowCols := make([][]int, p.M)
	for j, rows := range p.Cols {
		for _, r := range rows {
			rowCols[r] = append(rowCols[r], j)
		}
	}
	maxNodes := opts.MaxNodes
	if maxNodes == 0 {
		maxNodes = DefaultMaxNodes
	}
	st := &state{
		residual: append([]int64(nil), p.B...),
		active:   make([]bool, len(p.Cols)),
		nActive:  make([]int, p.M),
		x:        make([]int64, len(p.Cols)),
	}
	for j := range st.active {
		st.active[j] = true
		st.x[j] = -1
	}
	for i, cols := range rowCols {
		st.nActive[i] = len(cols)
	}
	return &searcher{p: p, rowCols: rowCols, opts: opts, ctx: ctx, maxNodes: maxNodes}, st, nil
}

// assign fixes column j to value v in-place; returns false on immediate
// contradiction (a positive-residual row with no active columns).
func (sr *searcher) assign(st *state, j int, v int64) bool {
	st.active[j] = false
	st.x[j] = v
	for _, r := range sr.p.Cols[j] {
		st.residual[r] -= v
		st.nActive[r]--
		if st.residual[r] < 0 {
			return false
		}
		if st.residual[r] > 0 && st.nActive[r] == 0 {
			return false
		}
	}
	return true
}

// propagate applies the zero-residual rule to fixpoint: any active column
// touching a zero-residual row must be 0. Returns false on contradiction.
func (sr *searcher) propagate(st *state) bool {
	for {
		changed := false
		for i := 0; i < sr.p.M; i++ {
			if st.residual[i] != 0 || st.nActive[i] == 0 {
				continue
			}
			for _, j := range sr.rowCols[i] {
				if st.active[j] {
					if !sr.assign(st, j, 0) {
						return false
					}
					changed = true
				}
			}
		}
		if !changed {
			return true
		}
	}
}

// done reports whether all residuals are zero.
func (st *state) done() bool {
	for _, r := range st.residual {
		if r != 0 {
			return false
		}
	}
	return true
}

// solution reads the assignment off a finished node (all residuals zero).
// Propagate has zeroed the columns on zero rows and every column touches
// some row, so every column is assigned; an unassigned column's -1 marker
// would read as 0.
func (st *state) solution() []int64 {
	sol := make([]int64, len(st.x))
	for j, v := range st.x {
		if v < 0 {
			v = 0
		}
		sol[j] = v
	}
	return sol
}

// lpBound applies the LP relaxation bound when LPPruning is on: it reports
// whether the node survives, and the basis its children warm-start from.
// hint is the basis of a related relaxation (the parent node's, in stable
// original-column ids); with pruning off it passes straight through.
func (sr *searcher) lpBound(st *state, hint lp.Basis) (bool, lp.Basis, error) {
	if !sr.opts.LPPruning {
		return true, hint, nil
	}
	var cols [][]int
	var ids []int
	for j, rows := range sr.p.Cols {
		if st.active[j] {
			cols = append(cols, rows)
			ids = append(ids, j)
		}
	}
	vals := make([]big.Rat, sr.p.M)
	b := make([]*big.Rat, sr.p.M)
	for i, r := range st.residual {
		b[i] = vals[i].SetInt64(r)
	}
	res, err := lp.Solve(sr.p.M, cols, b, nil, ids, hint)
	if err != nil {
		return false, nil, err
	}
	return res.Feasible, res.Basis, nil
}

// branchOn picks the node's branch: the unsatisfied row with the fewest
// active columns, its first active column, and ub, the column's largest
// admissible value (the least residual over its rows). ok is false when
// no branch exists — a positive-residual row with no active column is a
// contradiction.
func (sr *searcher) branchOn(st *state) (branch int, ub int64, ok bool) {
	row := -1
	for i := 0; i < sr.p.M; i++ {
		if st.residual[i] > 0 && (row < 0 || st.nActive[i] < st.nActive[row]) {
			row = i
		}
	}
	if row < 0 {
		return 0, 0, false // unreachable: done() was false but no positive residual
	}
	branch = -1
	for _, j := range sr.rowCols[row] {
		if st.active[j] {
			branch = j
			break
		}
	}
	if branch < 0 {
		return 0, 0, false
	}
	ub = -1
	for _, r := range sr.p.Cols[branch] {
		if ub < 0 || st.residual[r] < ub {
			ub = st.residual[r]
		}
	}
	return branch, ub, true
}

// dfs runs the branch-and-bound search. fn is invoked on each complete
// solution; returning errStop (or any error) unwinds the search. hint is
// the LP basis of the parent node's relaxation (nil at the root), threaded
// down so each node's simplex warm-starts from its parent. The branch
// column's values are tried from ub down to 0: large values saturate
// residuals and trigger propagation, so margin-style systems reach a
// feasible corner quickly.
func (sr *searcher) dfs(st *state, hint lp.Basis, fn func(x []int64) error) error {
	sr.nodes++
	if sr.nodes > sr.maxNodes {
		return ErrNodeLimit
	}
	if sr.nodes&ctxCheckMask == 0 {
		if err := sr.ctx.Err(); err != nil {
			return err
		}
	}
	if !sr.propagate(st) {
		return nil
	}
	if st.done() {
		return fn(st.solution())
	}
	ok, basis, err := sr.lpBound(st, hint)
	if err != nil || !ok {
		return err
	}
	branch, ub, ok := sr.branchOn(st)
	if !ok {
		return nil
	}
	for v := ub; v >= 0; v-- {
		// Branch attempts that die in assign never reach dfs's node-counter
		// poll, and a single value sweep can be 2^16 iterations on
		// large-multiplicity rows — so poll the context here as well, keyed
		// on a separate tick counter, to keep cancellation latency bounded.
		sr.ticks++
		if sr.ticks&ctxCheckMask == 0 {
			if err := sr.ctx.Err(); err != nil {
				return err
			}
		}
		child := st.clone()
		if !sr.assign(child, branch, v) {
			continue
		}
		if err := sr.dfs(child, basis, fn); err != nil {
			return err
		}
	}
	return nil
}
