// Package ilp decides integer feasibility of the sparse 0/1 equality
// systems that arise as the programs P(R1,...,Rm) of the paper
// (Equation 14): find x ∈ Z≥0 with, for every row i, the sum of x_j over
// the columns j containing i equal to b_i.
//
// For m = 2 these systems are totally unimodular and the max-flow
// formulation of package maxflow is preferred; for m ≥ 3 deciding
// feasibility is NP-complete (Theorem 4 of the paper), so this package
// implements an exact branch-and-bound search with constraint propagation,
// an explicit node budget (worst cases fail loudly instead of hanging), a
// seeded restart portfolio that keeps one bad early branch choice from
// deciding Solve's running time, and complete enumeration of all solutions
// for the witness-counting experiments.
package ilp

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"math/rand/v2"
	"strconv"

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
	// deterministic holds Solve to the deterministic walk alone, the one
	// Enumerate runs. Only tests set it.
	deterministic bool
}

// DefaultMaxNodes is the node budget used when Options.MaxNodes is 0.
const DefaultMaxNodes = 50_000_000

// Solution is the outcome of Solve.
type Solution struct {
	// Feasible reports whether an integer solution exists.
	Feasible bool
	// X is a feasible assignment (nil when infeasible).
	X []int64
	// Nodes is the number of search nodes explored, over every walk of
	// Solve's schedule. It never exceeds MaxNodes.
	Nodes int64
}

// stopError is the error of a search that stopped without a verdict: at
// its node budget or when its context ended. It reads as, and unwraps to,
// the error that stopped it, and carries the nodes the search explored,
// which callers that account search work read through its Nodes method.
type stopError struct {
	err   error
	nodes int64
}

func (e *stopError) Error() string { return e.err.Error() }
func (e *stopError) Unwrap() error { return e.err }

// Nodes returns the number of nodes the search explored before it stopped.
func (e *stopError) Nodes() int64 { return e.nodes }

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

// search is one call's problem, options and node budget. Every walk of the
// call shares it, so the budget and the context polls count all of them.
type search struct {
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
}

// walker is one depth-first walk of the search tree, run in place on its
// own state: the deterministic walk, or one of Solve's randomized runs.
type walker struct {
	*search
	st state
	// trail lists the assigned columns in assignment order, so the walk
	// can undo back to a mark.
	trail []int
	// open holds one entry per node on the current path, shallowest
	// first. It is the walk's position: run resumes from its top.
	open []openNode
	// started is set once the walk has run its root node.
	started bool
	// random makes branchOn break its ties with rng: a randomized run.
	random bool
	rng    rand.PCG
}

// openNode is a node on the current path: its branch column, the next
// value to try (counting down; negative once none is left), and the trail
// length before the column was assigned.
type openNode struct {
	col  int
	next int64
	mark int
}

// ctxCheckMask controls how often the search polls its context: every
// (ctxCheckMask+1) nodes. Nodes are cheap, so polling each one would be
// measurable; 1024 keeps cancellation latency well under a millisecond on
// any hardware that can run the search at all.
const ctxCheckMask = 1<<10 - 1

// Solve's schedule. The deterministic walk runs alone for portfolioSolo
// nodes, so every tree that small is walked exactly as Enumerate walks it.
// Past that, round k = 1, 2, ... runs the resumed deterministic walk and
// then a randomized run from the root, each for portfolioUnit·luby(k)
// nodes, until one of them decides. Luby, Sinclair and Zuckerman's
// universal sequence ("Optimal speedup of Las Vegas algorithms", 1993)
// bounds the cost of a heavy-tailed walk without knowing its tail. The
// deterministic slice of a round always runs first, so a refutation costs
// less than twice the deterministic tree.
const (
	portfolioSolo = 4096
	portfolioUnit = 4096
)

// state is the search's residuals and column assignment. A column is
// active while unassigned (x is -1); assigning it subtracts its value from
// its rows' residuals. The slices share one backing array.
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

// Solve searches for one feasible integer solution. The search is
// deterministic: every call on the same problem and options returns the
// same X and Nodes.
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
	span.SetAttr("feasible", strconv.FormatBool(sol.Feasible))
	return sol, nil
}

func solveTraced(ctx context.Context, p *Problem, opts Options, span *trace.Span) (*Solution, error) {
	w, err := newSearch(ctx, p, opts)
	if err != nil {
		return nil, err
	}
	var found []int64
	solved := false
	err = w.portfolio(func(x []int64) error {
		// An explicit flag, not found != nil: the zero-column program's
		// solution is the empty slice, which append leaves nil.
		found = append([]int64(nil), x...)
		solved = true
		return errStop
	})
	if err != nil && !errors.Is(err, errStop) {
		if w.nodes > 0 {
			span.SetCounter("nodes", w.nodes)
		}
		return nil, &stopError{err: err, nodes: w.nodes}
	}
	if !solved {
		return &Solution{Feasible: false, Nodes: w.nodes}, nil
	}
	return &Solution{Feasible: true, X: found, Nodes: w.nodes}, nil
}

// portfolio runs Solve's schedule from w, the deterministic walk. Every
// walk covers the whole tree, so the first to find a solution proves the
// program feasible (fn's errStop is returned) and the first to exhaust its
// tree proves it infeasible (nil is returned). The randomized runs share
// one walker, rewound to the root and reseeded from k for each, so they
// allocate once per solve.
func (w *walker) portfolio(fn func(x []int64) error) error {
	if w.opts.deterministic {
		_, err := w.run(math.MaxInt64, fn)
		return err
	}
	done, err := w.run(portfolioSolo, fn)
	var r *walker
	for k := int64(1); !done && err == nil; k++ {
		n := portfolioUnit * luby(k)
		if done, err = w.run(n, fn); done || err != nil {
			break
		}
		if r == nil {
			r = w.walker()
			r.random = true
		}
		r.restart(k)
		done, err = r.run(n, fn)
	}
	return err
}

// luby returns term k ≥ 1 of the universal restart sequence 1, 1, 2, 1,
// 1, 2, 4, 1, ...: 2^(i-1) when k = 2^i - 1, and otherwise term
// k - 2^(i-1) + 1, for the i with 2^(i-1) ≤ k < 2^i.
func luby(k int64) int64 {
	for {
		i := bits.Len64(uint64(k))
		if k == 1<<i-1 {
			return 1 << (i - 1)
		}
		k -= 1<<(i-1) - 1
	}
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
	w, err := newSearch(ctx, p, opts)
	if err != nil {
		return err
	}
	_, err = w.run(math.MaxInt64, fn)
	return err
}

// errStop is a sentinel used by Solve to stop after the first solution.
var errStop = errors.New("ilp: stop")

// newSearch validates p and returns its deterministic walk.
func newSearch(ctx context.Context, p *Problem, opts Options) (*walker, error) {
	if err := p.validate(); err != nil {
		return nil, err
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
	s := &search{p: p, rowStart: rowStart, rowCol: rowCol, opts: opts, ctx: ctx, maxNodes: maxNodes}
	return s.walker(), nil
}

// walker returns a new walk of s at the root: every column active and
// every residual its right-hand side.
func (s *search) walker() *walker {
	p := s.p
	st := newState(p.M, len(p.Cols))
	copy(st.residual, p.B)
	for i, b := range p.B {
		st.nActive[i] = int64(s.rowStart[i+1] - s.rowStart[i])
		if b != 0 {
			st.nonzero++
		}
	}
	for j := range st.x {
		st.x[j] = -1
	}
	// A column is on the trail only while assigned, and each open node
	// branches on a column of its own, so len(p.Cols) bounds both stacks.
	return &walker{search: s, st: st, trail: make([]int, 0, len(p.Cols)), open: make([]openNode, 0, len(p.Cols))}
}

// restart rewinds the walk to the root for randomized run k, with its
// choices seeded from k.
func (w *walker) restart(k int64) {
	w.undo(0)
	w.open = w.open[:0]
	w.started = false
	w.rng.Seed(uint64(k), uint64(k))
}

// assign fixes active column j to v and reports whether all of j's rows
// can still be met: no residual went negative, and no positive residual
// lost its last active column. It updates every row either way, so undo
// restores the state exactly.
func (w *walker) assign(j int, v int64) bool {
	st := &w.st
	st.x[j] = v
	w.trail = append(w.trail, j)
	ok := true
	for _, r := range w.p.Cols[j] {
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

// undo makes the columns the trail recorded after mark active again,
// last assigned first.
func (w *walker) undo(mark int) {
	st := &w.st
	for k := len(w.trail) - 1; k >= mark; k-- {
		j := w.trail[k]
		v := st.x[j]
		st.x[j] = -1
		for _, r := range w.p.Cols[j] {
			if v != 0 {
				st.addResidual(r, v)
			}
			st.nActive[r]++
		}
	}
	w.trail = w.trail[:mark]
}

// propagate applies the zero-residual rule: every active column on a
// zero-residual row must be 0. Assigning 0 changes no residual, so one
// pass over the zero rows reaches the fixpoint. The root (branch < 0)
// scans every row. Below it, the parent's propagation left no active
// column on a zero row and only the branch column's rows changed, so only
// those are visited. Returns false on contradiction.
func (w *walker) propagate(branch int) bool {
	if branch < 0 {
		for i := 0; i < w.p.M; i++ {
			if !w.zeroRow(i) {
				return false
			}
		}
		return true
	}
	for _, r := range w.p.Cols[branch] {
		if !w.zeroRow(r) {
			return false
		}
	}
	return true
}

// zeroRow assigns 0 to row i's active columns if its residual is 0.
func (w *walker) zeroRow(i int) bool {
	if w.st.residual[i] != 0 || w.st.nActive[i] == 0 {
		return true
	}
	for _, j := range w.rowCol[w.rowStart[i]:w.rowStart[i+1]] {
		if w.st.x[j] < 0 && !w.assign(j, 0) {
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

// branchOn picks the node's branch: an unsatisfied row with the fewest
// active columns, an active column of that row, and ub, the column's
// largest admissible value (the least residual over its rows). The
// deterministic walk takes the lowest such row and its first active
// column; a randomized run picks uniformly among the tied rows and among
// the row's active columns. ok is false when no branch exists — a
// positive-residual row with no active column is a contradiction.
func (w *walker) branchOn() (branch int, ub int64, ok bool) {
	st := &w.st
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
	cols := w.rowCol[w.rowStart[row]:w.rowStart[row+1]]
	branch = -1
	if w.random {
		// Reservoir sampling: the k-th candidate replaces the pick with
		// probability 1/k.
		var ties uint64
		for i := row; i < len(st.residual); i++ {
			if st.residual[i] > 0 && nActive[i] == fewest {
				if ties++; w.rng.Uint64()%ties == 0 {
					cols = w.rowCol[w.rowStart[i]:w.rowStart[i+1]]
				}
			}
		}
		var active uint64
		for _, j := range cols {
			if st.x[j] < 0 {
				if active++; w.rng.Uint64()%active == 0 {
					branch = j
				}
			}
		}
	} else {
		for _, j := range cols {
			if st.x[j] < 0 {
				branch = j
				break
			}
		}
	}
	if branch < 0 {
		return 0, 0, false
	}
	ub = -1
	for _, r := range w.p.Cols[branch] {
		if ub < 0 || st.residual[r] < ub {
			ub = st.residual[r]
		}
	}
	return branch, ub, true
}

// node runs one search node on the walk's state, whose last assignment
// was column branch (-1 at the root): it counts the node against the
// budget, propagates, and either reports a solution to fn, prunes, or
// pushes an open node for its branch column.
func (w *walker) node(branch int, fn func(x []int64) error) error {
	if w.nodes == w.maxNodes {
		return ErrNodeLimit
	}
	w.nodes++
	if w.nodes&ctxCheckMask == 0 {
		if err := w.ctx.Err(); err != nil {
			return err
		}
	}
	if !w.propagate(branch) {
		return nil
	}
	if w.st.nonzero == 0 {
		return fn(w.st.solution())
	}
	col, ub, ok := w.branchOn()
	if !ok {
		return nil
	}
	w.open = append(w.open, openNode{col: col, next: ub, mark: len(w.trail)})
	return nil
}

// run walks at most limit more nodes depth-first, from the root on its
// first call and from where the last call stopped after that. It reports
// done once the tree is exhausted, and returns fn's error (errStop once
// Solve has its solution) or the error that stopped the walk. The top
// open node tries its column's values from ub down to 0, each from the
// node's trail mark; large values saturate residuals and trigger
// propagation, so margin-style systems reach a feasible corner quickly. A
// call that reaches limit right after a successful assign re-queues that
// value, so the next call starts with that child.
func (w *walker) run(limit int64, fn func(x []int64) error) (done bool, err error) {
	if !w.started {
		w.started = true
		limit--
		if err := w.node(-1, fn); err != nil {
			return false, err
		}
	}
	for {
		k := len(w.open) - 1
		if k < 0 {
			return true, nil
		}
		o := &w.open[k]
		v := o.next
		if v < 0 {
			w.open = w.open[:k]
			continue
		}
		o.next = v - 1
		w.undo(o.mark)
		// Branch attempts that die in assign never reach node's poll, and
		// a single value sweep can be 2^16 iterations on large-multiplicity
		// rows — so poll the context here as well, keyed on a separate
		// tick counter, to keep cancellation latency bounded.
		w.ticks++
		if w.ticks&ctxCheckMask == 0 {
			if err := w.ctx.Err(); err != nil {
				return false, err
			}
		}
		if !w.assign(o.col, v) {
			continue
		}
		if limit <= 0 {
			o.next = v
			return false, nil
		}
		limit--
		if err := w.node(o.col, fn); err != nil {
			return false, err
		}
	}
}
