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
	// Steals counts jobs workers took off the frontier (parallel search
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

// searcher holds the mutable state of one search: the sequential one, or
// one worker of the parallel search.
type searcher struct {
	p *Problem
	// Row i's columns are rowCol[rowStart[i]:rowStart[i+1]], in column
	// order.
	rowStart []int
	rowCol   []int
	opts     Options
	ctx      context.Context
	nodes    int64
	ticks    int64 // branch attempts, including ones that fail propagation
	maxNodes int64
	// trail lists the assigned columns in assignment order, so the search
	// can undo back to a mark.
	trail []int
	// open holds one entry per node on the current path that branch is
	// looping over, shallowest first.
	open []openNode
	// pool is the parallel search this searcher is a worker of; nil for
	// the sequential search.
	pool *parSearcher
}

// openNode is a node on the current path: its branch column, the next
// value to try (counting down; negative once none is left), the trail
// length before the column was assigned, and the LP basis its children
// warm-start from.
type openNode struct {
	col   int
	next  int64
	mark  int
	basis lp.Basis
}

// ctxCheckMask controls how often the search polls its context: every
// (ctxCheckMask+1) nodes. Nodes are cheap, so polling each one would be
// measurable; 1024 keeps cancellation latency well under a millisecond on
// any hardware that can run the search at all.
const ctxCheckMask = 1<<10 - 1

// state is the search's residuals and column assignment. A column is
// active while unassigned (x is -1); assigning it subtracts its value from
// its rows' residuals. The slices share one backing array, so a copy is
// one allocation.
type state struct {
	residual []int64 // per row
	nActive  []int64 // per row: active columns, one per Cols entry
	x        []int64 // per column: its value, or -1 while active
	nonzero  int     // rows whose residual is not 0
}

func newState(m, n int) state {
	buf := make([]int64, 2*m+n)
	return state{residual: buf[:m:m], nActive: buf[m : 2*m : 2*m], x: buf[2*m:]}
}

func (s *state) clone() state {
	c := newState(len(s.residual), len(s.x))
	copy(c.residual, s.residual)
	copy(c.nActive, s.nActive)
	copy(c.x, s.x)
	c.nonzero = s.nonzero
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
	err = sr.dfs(st, -1, nil, func(x []int64) error {
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
	return sr.dfs(st, -1, nil, fn)
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
	// Count each row's entries and accumulate them to the end of each
	// row's run, then place the columns from last to first: every cursor
	// walks back to its row's start, leaving the run in column order.
	rowStart := make([]int, p.M+1)
	for _, rows := range p.Cols {
		for _, r := range rows {
			rowStart[r]++
		}
	}
	for i := 1; i <= p.M; i++ {
		rowStart[i] += rowStart[i-1]
	}
	rowCol := make([]int, rowStart[p.M])
	for j := len(p.Cols) - 1; j >= 0; j-- {
		for _, r := range p.Cols[j] {
			rowStart[r]--
			rowCol[rowStart[r]] = j
		}
	}
	maxNodes := opts.MaxNodes
	if maxNodes == 0 {
		maxNodes = DefaultMaxNodes
	}
	st := newState(p.M, len(p.Cols))
	copy(st.residual, p.B)
	for i, b := range p.B {
		st.nActive[i] = int64(rowStart[i+1] - rowStart[i])
		if b != 0 {
			st.nonzero++
		}
	}
	for j := range st.x {
		st.x[j] = -1
	}
	// A column is on the trail only while assigned, and each open node
	// branches on a column of its own, so len(p.Cols) bounds both stacks.
	sr := &searcher{p: p, rowStart: rowStart, rowCol: rowCol, opts: opts, ctx: ctx, maxNodes: maxNodes,
		trail: make([]int, 0, len(p.Cols)), open: make([]openNode, 0, len(p.Cols))}
	return sr, &st, nil
}

// assign fixes active column j to v and reports whether all of j's rows
// can still be met: no residual went negative, and no positive residual
// lost its last active column. It updates every row either way, so undo
// restores the state exactly.
func (sr *searcher) assign(st *state, j int, v int64) bool {
	st.x[j] = v
	sr.trail = append(sr.trail, j)
	ok := true
	for _, r := range sr.p.Cols[j] {
		res := st.residual[r]
		if v != 0 {
			res = st.addResidual(r, -v)
		}
		st.nActive[r]--
		if res < 0 || res > 0 && st.nActive[r] == 0 {
			ok = false
		}
	}
	return ok
}

// addResidual adds d to row r's residual, keeps nonzero current, and
// returns the new residual.
func (st *state) addResidual(r int, d int64) int64 {
	res := st.residual[r]
	if res != 0 {
		st.nonzero--
	}
	res += d
	if res != 0 {
		st.nonzero++
	}
	st.residual[r] = res
	return res
}

// undo unassigns the columns the trail recorded after mark.
func (sr *searcher) undo(st *state, mark int) {
	sr.unassign(st, sr.trail[mark:])
	sr.trail = sr.trail[:mark]
}

// unassign makes the columns cols active again, last assigned first.
func (sr *searcher) unassign(st *state, cols []int) {
	for k := len(cols) - 1; k >= 0; k-- {
		j := cols[k]
		v := st.x[j]
		st.x[j] = -1
		for _, r := range sr.p.Cols[j] {
			if v != 0 {
				st.addResidual(r, v)
			}
			st.nActive[r]++
		}
	}
}

// propagate applies the zero-residual rule: every active column on a
// zero-residual row must be 0. Assigning 0 changes no residual, so one
// pass over the zero rows reaches the fixpoint. The root (branch < 0)
// scans every row. Below it, the parent's propagation left no active
// column on a zero row and only the branch column's rows changed, so only
// those are visited. Returns false on contradiction.
func (sr *searcher) propagate(st *state, branch int) bool {
	if branch < 0 {
		for i := 0; i < sr.p.M; i++ {
			if !sr.zeroRow(st, i) {
				return false
			}
		}
		return true
	}
	for _, r := range sr.p.Cols[branch] {
		if !sr.zeroRow(st, r) {
			return false
		}
	}
	return true
}

// zeroRow assigns 0 to row i's active columns if its residual is 0.
func (sr *searcher) zeroRow(st *state, i int) bool {
	if st.residual[i] != 0 || st.nActive[i] == 0 {
		return true
	}
	for _, j := range sr.rowCol[sr.rowStart[i]:sr.rowStart[i+1]] {
		if st.x[j] < 0 && !sr.assign(st, j, 0) {
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
		if st.x[j] < 0 {
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
	row, fewest := -1, int64(0)
	nActive := st.nActive[:len(st.residual)]
	for i, r := range st.residual {
		if r > 0 && (row < 0 || nActive[i] < fewest) {
			row, fewest = i, nActive[i]
		}
	}
	if row < 0 {
		return 0, 0, false // unreachable: a residual is nonzero but none is positive
	}
	branch = -1
	for _, j := range sr.rowCol[sr.rowStart[row]:sr.rowStart[row+1]] {
		if st.x[j] < 0 {
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

// dfs runs one search node in place on st: it counts the node against
// the budget, propagates, and either reports a solution, prunes, or
// branches. branch is the column the parent assigned (-1 at the root). fn
// is invoked on each complete solution; returning errStop (or any error)
// unwinds the search and leaves st mid-search. hint is the LP basis of
// the parent node's relaxation (nil at the root), threaded down so each
// node's simplex warm-starts from its parent.
func (sr *searcher) dfs(st *state, branch int, hint lp.Basis, fn func(x []int64) error) error {
	var n int64
	if ps := sr.pool; ps != nil {
		if ps.stop.Load() {
			return errStop
		}
		n = ps.nodes.Add(1)
	} else {
		sr.nodes++
		n = sr.nodes
	}
	if n > sr.maxNodes {
		return ErrNodeLimit
	}
	if n&ctxCheckMask == 0 {
		if err := sr.ctx.Err(); err != nil {
			return err
		}
	}
	if !sr.propagate(st, branch) {
		return nil
	}
	if st.nonzero == 0 {
		return fn(st.solution())
	}
	ok, basis, err := sr.lpBound(st, hint)
	if err != nil || !ok {
		return err
	}
	col, ub, ok := sr.branchOn(st)
	if !ok {
		return nil
	}
	return sr.branch(st, col, ub, basis, fn)
}

// branch tries the values ub down to 0 for column col at the node st
// holds: each attempt assigns the column, searches the child, and undoes
// back to the node's trail mark. Large values saturate residuals and
// trigger propagation, so margin-style systems reach a feasible corner
// quickly. The values left to try live on the open stack, where the
// parallel search can hand them to another worker; the loop then ends
// after its current value.
func (sr *searcher) branch(st *state, col int, ub int64, basis lp.Basis, fn func(x []int64) error) error {
	k, mark := len(sr.open), len(sr.trail)
	sr.open = append(sr.open, openNode{col: col, next: ub, mark: mark, basis: basis})
	for {
		v := sr.open[k].next
		if v < 0 {
			break
		}
		sr.open[k].next = v - 1
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
		if ps := sr.pool; ps != nil && ps.queued.Load() < int64(ps.workers) {
			ps.donate(sr, st)
		}
		if sr.assign(st, col, v) {
			if err := sr.dfs(st, col, basis, fn); err != nil {
				return err
			}
		}
		sr.undo(st, mark)
	}
	sr.open = sr.open[:k]
	return nil
}
