package ilp

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"

	"bagconsistency/internal/lp"
)

// The parallel search explores the same branch-and-bound tree as dfs with a
// work-stealing scheme: every worker runs dfs and branch in place on its own
// state and trail. Worker 0 starts at the root; the others take jobs from a
// shared frontier. Whenever the frontier holds fewer jobs than there are
// workers, a worker donates the untried values of the shallowest node on its
// path. Shallow nodes root the largest unexplored subtrees, so donations keep
// steal granularity coarse.
//
// Determinism contract: the feasibility verdict is identical for every
// worker count. UNSAT is only reported after the all-idle barrier — every
// worker out of work and the frontier empty — which means the whole tree
// was exhausted, exactly as in the sequential search. SAT is reported for
// the first solution any worker reaches; which solution that is, and how
// many nodes were expanded before it, legitimately vary run to run.

// job is a donated node: its propagated state, owned by whichever worker
// takes the job, its branch column, the highest value left to try, and the
// LP basis its children warm-start from (read-only once set).
type job struct {
	st    state
	col   int
	next  int64
	basis lp.Basis
}

// parSearcher is the shared coordination state of one parallel solve.
type parSearcher struct {
	workers int

	nodes  atomic.Int64
	queued atomic.Int64 // len(frontier), read off-lock by donors
	stop   atomic.Bool  // fast-path mirror of done, polled off-lock

	mu       sync.Mutex
	cond     *sync.Cond
	frontier []*job
	idleN    int
	steals   int64
	idles    int64
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
	ps := &parSearcher{workers: opts.Workers}
	ps.cond = sync.NewCond(&ps.mu)
	sr.pool = ps
	// Worker 0 is sr itself; every other worker copies sr's shared fields
	// before sr starts, with a trail and open stack of its own.
	var wg sync.WaitGroup
	for i := 1; i < ps.workers; i++ {
		w := *sr
		w.trail = make([]int, 0, cap(sr.trail))
		w.open = make([]openNode, 0, cap(sr.open))
		wg.Add(1)
		go func() {
			defer wg.Done()
			ps.work(&w, nil)
		}()
	}
	ps.work(sr, st)
	wg.Wait()

	sol := &Solution{Nodes: ps.nodes.Load(), Steals: ps.steals, Idles: ps.idles}
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
	return sol, nil
}

// work runs one worker: the search from root if it has one, then donated
// jobs until the solve is done.
func (ps *parSearcher) work(sr *searcher, root *state) {
	publish := func(x []int64) error {
		ps.finish(x, nil)
		return errStop
	}
	var err error
	if root != nil {
		err = sr.dfs(root, -1, nil, publish)
	}
	for err == nil {
		j := ps.take()
		if j == nil {
			return
		}
		err = sr.branch(&j.st, j.col, j.next, j.basis, publish)
	}
	if !errors.Is(err, errStop) {
		ps.finish(nil, err)
	}
}

// take pops the oldest frontier job (oldest-first keeps stolen work far
// from the donors' current subtrees), blocking while the frontier is
// empty. It returns nil once the solve is done — including the moment this
// worker's idling makes every worker idle, which proves the whole tree is
// explored and flips done for everyone.
func (ps *parSearcher) take() *job {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	for {
		if ps.done {
			return nil
		}
		if len(ps.frontier) > 0 {
			j := ps.frontier[0]
			ps.frontier = ps.frontier[1:]
			ps.queued.Store(int64(len(ps.frontier)))
			ps.steals++
			return j
		}
		ps.idleN++
		ps.idles++
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

// donate hands the untried values of the shallowest node on sr's path to
// the frontier, waking one idle worker. The job's state is a copy of st
// with the trail undone back to that node's mark, so a state is copied once
// per donation. The node's own loop then ends after its current value; the
// donor keeps the subtree it is in.
func (ps *parSearcher) donate(sr *searcher, st *state) {
	for k := range sr.open {
		o := &sr.open[k]
		if o.next < 0 {
			continue
		}
		j := &job{st: st.clone(), col: o.col, next: o.next, basis: o.basis}
		sr.unassign(&j.st, sr.trail[o.mark:])
		o.next = -1
		ps.mu.Lock()
		ps.frontier = append(ps.frontier, j)
		ps.queued.Store(int64(len(ps.frontier)))
		ps.cond.Signal()
		ps.mu.Unlock()
		return
	}
}

// finish stops the solve with a solution or an error. The first of each
// is kept; a solution outranks any error another worker reports.
func (ps *parSearcher) finish(x []int64, err error) {
	ps.mu.Lock()
	if x != nil && ps.found == nil {
		ps.found = x
	}
	if err != nil && ps.err == nil {
		ps.err = err
	}
	ps.done = true
	ps.stop.Store(true)
	ps.cond.Broadcast()
	ps.mu.Unlock()
}
