package core

import (
	"context"
	"fmt"

	"bagconsistency/internal/bag"
	"bagconsistency/internal/ilp"
)

// MinimizeWitnessSupport shrinks a witness of global consistency to a
// minimal one: no bag with a strictly smaller support also witnesses the
// collection. It greedily probes each support tuple and drops it when the
// program P(R1,...,Rm) restricted to the remaining support stays feasible.
//
// By Theorem 3(3) (via the Eisenbrand–Shmonin integer Carathéodory lemma)
// the result's support size is at most Σ‖Ri‖b, the total binary size of
// the inputs. Each probe is an exact integer feasibility query, so this is
// intended for the NP-side experiments on modest instances; use
// MinimalPairWitness for the strongly polynomial m = 2 case.
func (c *Collection) MinimizeWitnessSupport(w *bag.Bag, opts ilp.Options) (*bag.Bag, error) {
	return c.MinimizeWitnessSupportContext(context.Background(), w, opts)
}

// MinimizeWitnessSupportContext is MinimizeWitnessSupport with cooperative
// cancellation: ctx is polled before every feasibility probe and inside
// each probe's integer search.
func (c *Collection) MinimizeWitnessSupportContext(ctx context.Context, w *bag.Bag, opts ilp.Options) (*bag.Bag, error) {
	ok, err := c.VerifyWitness(w)
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, fmt.Errorf("core: bag is not a witness of the collection")
	}
	p, join, err := c.BuildProgram()
	if err != nil {
		return nil, err
	}
	if len(p.Cols) == 0 {
		return w.Clone(), nil
	}
	// Active columns: start from the witness's support (a feasible subset).
	active := make([]bool, len(p.Cols))
	for j := range active {
		active[j] = w.CountTuple(columnTuple(join, j)) > 0
	}
	restricted := func() *ilp.Problem {
		var cols [][]int
		for j, rows := range p.Cols {
			if active[j] {
				cols = append(cols, rows)
			}
		}
		return &ilp.Problem{M: p.M, Cols: cols, B: p.B}
	}
	feasible := func() (bool, []int64, error) {
		rp := restricted()
		if len(rp.Cols) == 0 {
			return emptyProgramConsistent(rp), nil, nil
		}
		sol, err := ilp.SolveContext(ctx, rp, opts)
		if err != nil {
			return false, nil, err
		}
		return sol.Feasible, sol.X, nil
	}
	for j := range active {
		if !active[j] {
			continue
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		active[j] = false
		ok, _, err := feasible()
		if err != nil {
			return nil, err
		}
		if !ok {
			active[j] = true
		}
	}
	ok2, x, err := feasible()
	if err != nil {
		return nil, err
	}
	if !ok2 {
		return nil, fmt.Errorf("core: minimization lost feasibility (internal error)")
	}
	counts := make([]int64, len(active))
	xi := 0
	for j := range active {
		if active[j] && x != nil {
			counts[j] = x[xi]
			xi++
		}
	}
	out, err := witnessBag(join, counts)
	if err != nil {
		return nil, err
	}
	// Every surviving column carries positive flow: a solution with a zero
	// column would make the probe that kept that column infeasible, a
	// contradiction. So out's support is exactly the minimal active set.
	okW, err := c.VerifyWitness(out)
	if err != nil {
		return nil, err
	}
	if !okW {
		return nil, fmt.Errorf("core: minimized bag fails witness verification (internal error)")
	}
	return out, nil
}
