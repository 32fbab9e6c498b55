package core

import (
	"fmt"
	"math/big"

	"bagconsistency/internal/bag"
	"bagconsistency/internal/lp"
)

// TupleCost assigns a non-negative integer cost to a joined tuple; used by
// MinCostPairWitness to rank witnesses.
type TupleCost func(t bag.Tuple) int64

// MinCostPairWitness constructs a witness of the consistency of two bags
// minimizing the given linear function of its multiplicities,
// Σ_t cost(t)·T(t). This realizes the remark at the end of Section 3: any
// LP algorithm applied to P(R,S) can simultaneously decide consistency and
// optimize a linear objective, and by the Hoffman–Kruskal theorem (the
// constraint matrix is totally unimodular) the optimal basic solution is
// integral — the exact rational simplex therefore returns an integer
// witness directly.
//
// It returns (nil, false, nil) when the bags are inconsistent.
func MinCostPairWitness(r, s *bag.Bag, cost TupleCost) (*bag.Bag, bool, error) {
	if cost == nil {
		return nil, false, fmt.Errorf("core: nil cost function")
	}
	p, join, err := buildPairProgram(r, s)
	if err != nil {
		return nil, false, err
	}
	c := make([]int64, len(p.Cols))
	for j := range c {
		v := cost(columnTuple(join, j))
		if v < 0 {
			return nil, false, fmt.Errorf("core: negative tuple cost %d", v)
		}
		c[j] = v
	}
	res, err := lp.Solve(p.M, p.Cols, ratRHS(p.B), c)
	if err != nil {
		return nil, false, err
	}
	if !res.Feasible {
		return nil, false, nil
	}
	if res.Unbounded {
		// Impossible: costs are non-negative, so the objective is bounded
		// below by zero.
		return nil, false, fmt.Errorf("core: bounded objective reported unbounded (internal error)")
	}
	counts := make([]int64, len(res.X))
	for j, x := range res.X {
		if x.Sign() == 0 {
			continue
		}
		if !x.IsInt() {
			// Total unimodularity guarantees integral vertices; a fractional
			// basic solution means a bug, not an unlucky instance.
			return nil, false, fmt.Errorf("core: simplex returned fractional multiplicity %v (internal error)", x)
		}
		num := x.Num()
		if !num.IsInt64() {
			return nil, false, fmt.Errorf("core: witness multiplicity %v overflows int64", num)
		}
		counts[j] = num.Int64()
	}
	w, err := witnessBag(join, counts)
	if err != nil {
		return nil, false, err
	}
	return w, true, nil
}

// WitnessCost evaluates Σ_t cost(t)·T(t) for a witness bag.
func WitnessCost(w *bag.Bag, cost TupleCost) (*big.Int, error) {
	total := new(big.Int)
	err := w.Each(func(t bag.Tuple, count int64) error {
		c := cost(t)
		if c < 0 {
			return fmt.Errorf("core: negative tuple cost %d", c)
		}
		term := new(big.Int).Mul(big.NewInt(c), big.NewInt(count))
		total.Add(total, term)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return total, nil
}
