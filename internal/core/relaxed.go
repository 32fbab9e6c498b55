package core

import (
	"fmt"
	"math/big"

	"bagconsistency/internal/bag"
	"bagconsistency/internal/lp"
)

// The relaxed consistency notion of Atserias–Kolaitis, "Consistency,
// Acyclicity, and Positive Semirings" [AK20], which the paper's related
// work and concluding remarks contrast with the strict notion studied
// here. For the bag semiring, a collection is relaxed-consistent when a
// rational-valued non-negative "distribution" T exists whose marginals are
// PROPORTIONAL to each Ri — equivalently, when the normalized bags are
// consistent as probability distributions (Vorob'ev's setting). Strict
// consistency implies relaxed consistency; the converse fails (scale one
// bag), which is precisely the gap the paper closes for bags.

// RelaxedPairConsistent reports whether two non-empty bags have
// proportional shared marginals: ‖S‖u·R[Z](t) = ‖R‖u·S[Z](t) for all t.
// Two empty bags are relaxed-consistent; an empty and a non-empty bag are
// not.
func RelaxedPairConsistent(r, s *bag.Bag) (bool, error) {
	ru, err := r.UnarySize()
	if err != nil {
		return false, err
	}
	su, err := s.UnarySize()
	if err != nil {
		return false, err
	}
	if ru == 0 || su == 0 {
		return ru == su, nil
	}
	z := r.Schema().Intersect(s.Schema())
	rz, err := r.Marginal(z)
	if err != nil {
		return false, err
	}
	sz, err := s.Marginal(z)
	if err != nil {
		return false, err
	}
	if rz.Len() != sz.Len() {
		return false, nil
	}
	ok := true
	err = rz.Each(func(t bag.Tuple, rv int64) error {
		lhs := new(big.Int).Mul(big.NewInt(su), big.NewInt(rv))
		rhs := new(big.Int).Mul(big.NewInt(ru), big.NewInt(sz.CountTuple(t)))
		if lhs.Cmp(rhs) != 0 {
			ok = false
		}
		return nil
	})
	if err != nil {
		return false, err
	}
	return ok, nil
}

// RelaxedPairwiseConsistent checks RelaxedPairConsistent for every pair.
func (c *Collection) RelaxedPairwiseConsistent() (bool, error) {
	for i := 0; i < len(c.bags); i++ {
		for j := i + 1; j < len(c.bags); j++ {
			ok, err := RelaxedPairConsistent(c.bags[i], c.bags[j])
			if err != nil {
				return false, err
			}
			if !ok {
				return false, nil
			}
		}
	}
	return true, nil
}

// RelaxedGloballyConsistent decides relaxed global consistency over the
// rationals: does a non-negative rational vector (x_t : t ∈ J) exist whose
// marginal on each Xi is Ri normalized? That is rational feasibility of
// the program P(R1,...,Rm) of Equation (14) with each row's right-hand
// side Ri(r) divided by ‖Ri‖u — the relaxed notion differs from the
// strict one exactly by this normalization. The rows of any one bag sum
// to Σ_t x_t = 1, so the vector is a distribution without a separate
// normalization row. Exact LP feasibility decides the problem in all
// cases — unlike strict consistency, the relaxed notion is polynomial-time
// checkable for every fixed schema (it is the probability-distribution
// setting of Vorob'ev and [AK20]).
func (c *Collection) RelaxedGloballyConsistent() (bool, error) {
	if len(c.bags) == 0 {
		return false, fmt.Errorf("core: empty collection")
	}
	totals := make([]int64, len(c.bags))
	allEmpty := true
	for i, b := range c.bags {
		u, err := b.UnarySize()
		if err != nil {
			return false, err
		}
		totals[i] = u
		if u != 0 {
			allEmpty = false
		}
	}
	if allEmpty {
		return true, nil
	}
	for _, u := range totals {
		if u == 0 {
			// Mixing empty and non-empty bags: no distribution can have a
			// zero marginal mass on one schema and mass 1 on another.
			return false, nil
		}
	}
	p, _, err := c.BuildProgram()
	if err != nil {
		return false, err
	}
	// BuildProgram lays its rows out bag by bag, one per support tuple.
	vals := make([]big.Rat, p.M)
	b := make([]*big.Rat, p.M)
	row := 0
	for i, rb := range c.bags {
		for k := 0; k < rb.Len(); k++ {
			b[row] = vals[row].SetFrac64(p.B[row], totals[i])
			row++
		}
	}
	res, err := lp.Solve(p.M, p.Cols, b, nil)
	if err != nil {
		return false, err
	}
	return res.Feasible, nil
}
