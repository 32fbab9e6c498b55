package ilp

import (
	"context"
	"sync"
	"sync/atomic"

	"bagconsistency/internal/lp"
)

// The parallel search explores the same branch-and-bound tree as dfs with a
// work-stealing scheme: each worker walks its own local stack of lazily
// expanded frames depth-first, and donates its shallowest frame to a shared
// bounded frontier whenever the frontier runs low. Shallow frames root the
// largest unexplored subtrees, so donations keep steal granularity coarse.
//
// Determinism contract: the feasibility verdict is identical for every
// worker count. UNSAT is only reported after the all-idle barrier — every
// worker out of frames and the frontier empty — which means the whole tree
// was exhausted, exactly as in the sequential search. SAT is reported for
// the first solution any worker reaches; which solution that is, and how
// many nodes were expanded before it, legitimately vary run to run.

// frame is a lazily expanded search node: the node's propagated state
// together with the chosen branch column and the next candidate value to
// try. Each child starts from a copy of the frame's state, made in one
// allocation, so a frame is owned by exactly one worker at a time and
// ownership transfers wholesale on donation. The parallel search keeps no
// undo trail.
type frame struct {
	st     state
	branch int
	next   int64    // next candidate value for st.x[branch], counting down to 0
	basis  lp.Basis // parent relaxation basis, read-only once set
}

// parSearcher is the shared coordination state of one parallel solve.
type parSearcher struct {
	p        *Problem
	rowStart []int
	rowCol   []int
	opts     Options
	ctx      context.Context
	maxNodes int64
	workers  int
	lowWater int // donate while the frontier holds fewer frames than this

	nodes  atomic.Int64
	steals atomic.Int64
	idles  atomic.Int64
	stop   atomic.Bool // fast-path mirror of done, polled off-lock

	mu       sync.Mutex
	cond     *sync.Cond
	frontier []*frame
	idleN    int
	done     bool
	found    []int64
	err      error
}

// solveParallel runs the work-stealing search with opts.Workers workers.
func solveParallel(ctx context.Context, p *Problem, opts Options) (*Solution, error) {
	sr, st, err := newSearch(ctx, p, opts)
	if err != nil {
		return nil, err
	}
	ps := &parSearcher{
		p:        p,
		rowStart: sr.rowStart,
		rowCol:   sr.rowCol,
		opts:     opts,
		ctx:      sr.ctx,
		maxNodes: sr.maxNodes,
		workers:  opts.Workers,
		lowWater: opts.Workers,
	}
	ps.cond = sync.NewCond(&ps.mu)

	// Expand the root inline: a root that is solved, refuted, or over
	// budget never needs workers at all.
	root, rootErr := ps.expand(sr, st, -1, nil)
	ps.mu.Lock()
	rootDone := ps.done
	ps.mu.Unlock()
	if rootErr == nil && root != nil && !rootDone {
		ps.frontier = append(ps.frontier, root)
		var wg sync.WaitGroup
		for i := 0; i < ps.workers; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				ps.worker()
			}()
		}
		wg.Wait()
	} else if rootErr != nil {
		ps.fail(rootErr)
	}

	sol := &Solution{
		Nodes:  ps.nodes.Load(),
		Steals: ps.steals.Load(),
		Idles:  ps.idles.Load(),
	}
	// A solution outranks a concurrent error: whatever else raced, a
	// verified witness is a correct answer.
	if ps.found != nil {
		sol.Feasible = true
		sol.X = ps.found
		return sol, nil
	}
	if ps.err != nil {
		return nil, ps.err
	}
	sol.Feasible = false
	return sol, nil
}

// worker drains frames depth-first from a local stack, refilling from the
// shared frontier when the stack empties and exiting as soon as the solve
// is globally done.
func (ps *parSearcher) worker() {
	// assign/propagate/lpBound/branchOn only read the shared problem, so a
	// per-worker searcher shell is race-free by construction.
	sr := &searcher{p: ps.p, rowStart: ps.rowStart, rowCol: ps.rowCol, opts: ps.opts, ctx: ps.ctx}
	var stack []*frame
	var ticks int64
	for {
		if ps.stop.Load() {
			return
		}
		if len(stack) == 0 {
			f := ps.take()
			if f == nil {
				return
			}
			stack = append(stack, f)
			continue
		}
		f := stack[len(stack)-1]
		if f.next < 0 {
			stack = stack[:len(stack)-1]
			continue
		}
		v := f.next
		f.next--
		// Same rationale as the sequential value loop: value sweeps on
		// large-multiplicity rows can spin without touching the node
		// counter, so poll the context on a tick counter too.
		ticks++
		if ticks&ctxCheckMask == 0 {
			if err := ps.ctx.Err(); err != nil {
				ps.fail(err)
				return
			}
		}
		child := f.st.clone()
		if !sr.assign(&child, f.branch, v) {
			continue
		}
		nf, err := ps.expand(sr, &child, f.branch, f.basis)
		if err != nil {
			ps.fail(err)
			return
		}
		if nf != nil {
			stack = append(stack, nf)
			ps.maybeDonate(&stack)
		}
	}
}

// expand processes one search node — budget, propagation, completion test,
// LP bound, branch selection — and returns the frame to push, or nil when
// the node is a leaf (solution, contradiction, or prune). branch is the
// column the parent assigned (-1 at the root), as in dfs.
func (ps *parSearcher) expand(sr *searcher, st *state, branch int, hint lp.Basis) (*frame, error) {
	n := ps.nodes.Add(1)
	if n > ps.maxNodes {
		return nil, ErrNodeLimit
	}
	if n&ctxCheckMask == 0 {
		if err := ps.ctx.Err(); err != nil {
			return nil, err
		}
	}
	if !sr.propagate(st, branch) {
		return nil, nil
	}
	if st.nonzero == 0 {
		ps.publish(st.solution())
		return nil, nil
	}
	ok, basis, err := sr.lpBound(st, hint)
	if err != nil || !ok {
		return nil, err
	}
	col, ub, ok := sr.branchOn(st)
	if !ok {
		return nil, nil
	}
	return &frame{st: *st, branch: col, next: ub, basis: basis}, nil
}

// take pops the oldest frontier frame (oldest-first keeps stolen work far
// from the donors' current subtrees), blocking while the frontier is empty. It
// returns nil once the solve is done — including the moment this worker's
// idling makes every worker idle, which proves the whole tree is explored
// and flips done for everyone.
func (ps *parSearcher) take() *frame {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	for {
		if ps.done {
			return nil
		}
		if len(ps.frontier) > 0 {
			f := ps.frontier[0]
			ps.frontier = ps.frontier[1:]
			ps.steals.Add(1)
			return f
		}
		ps.idleN++
		ps.idles.Add(1)
		if ps.idleN == ps.workers {
			ps.done = true
			ps.stop.Store(true)
			ps.cond.Broadcast()
			return nil
		}
		ps.cond.Wait()
		ps.idleN--
	}
}

// maybeDonate moves the worker's shallowest frame to the frontier when the
// frontier is running low, waking one idle worker. The stack must hold at
// least two frames so the donor always keeps work of its own.
func (ps *parSearcher) maybeDonate(stack *[]*frame) {
	if len(*stack) < 2 {
		return
	}
	ps.mu.Lock()
	if !ps.done && len(ps.frontier) < ps.lowWater {
		f := (*stack)[0]
		*stack = (*stack)[1:]
		ps.frontier = append(ps.frontier, f)
		ps.cond.Signal()
	}
	ps.mu.Unlock()
}

// publish records a solution and stops the solve. The first solution wins;
// a solution also outranks any error another worker is about to report.
func (ps *parSearcher) publish(x []int64) {
	ps.mu.Lock()
	if ps.found == nil {
		ps.found = x
	}
	ps.done = true
	ps.stop.Store(true)
	ps.cond.Broadcast()
	ps.mu.Unlock()
}

// fail records the first error and stops the solve.
func (ps *parSearcher) fail(err error) {
	ps.mu.Lock()
	if ps.err == nil {
		ps.err = err
	}
	ps.done = true
	ps.stop.Store(true)
	ps.cond.Broadcast()
	ps.mu.Unlock()
}
