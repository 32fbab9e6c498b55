package core_test

import (
	"math/rand"
	"testing"

	"bagconsistency/internal/bag"
	"bagconsistency/internal/core"
	"bagconsistency/internal/gen"
	"bagconsistency/internal/hypergraph"
)

// scaleEachBag multiplies every bag by its own random factor in [1,4]:
// relaxed consistency is blind to the scale of each bag, strict
// consistency is not.
func scaleEachBag(t *testing.T, rng *rand.Rand, c *core.Collection) *core.Collection {
	t.Helper()
	bags := make([]*bag.Bag, c.Len())
	for i := range bags {
		f := 1 + rng.Int63n(4)
		nb := bag.New(c.Bag(i).Schema())
		err := c.Bag(i).Each(func(tu bag.Tuple, n int64) error {
			return nb.AddTuple(tu, n*f)
		})
		if err != nil {
			t.Fatal(err)
		}
		bags[i] = nb
	}
	out, err := core.NewCollection(c.Hypergraph(), bags)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// randomRelaxedInstance returns the marginals of a random bag over h,
// each bag scaled by its own factor, with one tuple bumped when perturb.
func randomRelaxedInstance(t *testing.T, rng *rand.Rand, h *hypergraph.Hypergraph, perturb bool) *core.Collection {
	t.Helper()
	c, _, err := gen.RandomConsistent(rng, h, 2+rng.Intn(5), 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	c = scaleEachBag(t, rng, c)
	if perturb {
		if c, err = gen.Perturb(rng, c); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

// TestRelaxedLocalToGlobalOnAcyclicSchemas is the relaxed counterpart of
// Theorem 2: on an acyclic schema, a family of distributions that is
// pairwise consistent is globally consistent (local-to-global consistency
// for distributions, which [AK20] generalises to positive semirings). So
// the LP over the normalized program must agree with the pairwise
// proportionality test on every instance, consistent or not.
func TestRelaxedLocalToGlobalOnAcyclicSchemas(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	yes, no := 0, 0
	for trial := 0; trial < 300; trial++ {
		h, err := gen.RandomAcyclicHypergraph(rng, 2+rng.Intn(3), 1+rng.Intn(3))
		if err != nil {
			t.Fatal(err)
		}
		c := randomRelaxedInstance(t, rng, h, trial%2 == 1)
		pairwise, err := c.RelaxedPairwiseConsistent()
		if err != nil {
			t.Fatal(err)
		}
		global, err := c.RelaxedGloballyConsistent()
		if err != nil {
			t.Fatal(err)
		}
		if pairwise != global {
			t.Fatalf("trial %d over %v: relaxed pairwise %v, relaxed global %v", trial, h, pairwise, global)
		}
		if global {
			yes++
		} else {
			no++
		}
	}
	t.Logf("%d consistent, %d inconsistent", yes, no)
	if yes < 30 || no < 30 {
		t.Fatalf("degenerate sample: %d consistent, %d inconsistent", yes, no)
	}
}

// TestRelaxedImplicationsOnCyclicSchemas checks what survives on the
// triangle and the 4-cycle, where local-to-global fails: a distribution's
// marginals are pairwise proportional (relaxed global implies relaxed
// pairwise), and a witness bag normalized is a witness distribution
// (strict global implies relaxed global).
func TestRelaxedImplicationsOnCyclicSchemas(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	strictYes, relaxedYes := 0, 0
	for _, h := range []*hypergraph.Hypergraph{hypergraph.Triangle(), hypergraph.Cycle(4)} {
		for trial := 0; trial < 60; trial++ {
			var c *core.Collection
			if trial%3 == 0 {
				// Unscaled marginals: strictly consistent by construction.
				var err error
				if c, _, err = gen.RandomConsistent(rng, h, 2+rng.Intn(5), 4, 2); err != nil {
					t.Fatal(err)
				}
			} else {
				c = randomRelaxedInstance(t, rng, h, trial%3 == 2)
			}
			strict, err := c.GloballyConsistent(core.GlobalOptions{})
			if err != nil {
				t.Fatal(err)
			}
			relaxed, err := c.RelaxedGloballyConsistent()
			if err != nil {
				t.Fatal(err)
			}
			pairwise, err := c.RelaxedPairwiseConsistent()
			if err != nil {
				t.Fatal(err)
			}
			if relaxed && !pairwise {
				t.Fatalf("%v trial %d: relaxed global without relaxed pairwise", h, trial)
			}
			if strict.Consistent && !relaxed {
				t.Fatalf("%v trial %d: strictly consistent but not relaxed-consistent", h, trial)
			}
			if strict.Consistent {
				strictYes++
			}
			if relaxed {
				relaxedYes++
			}
		}
	}
	t.Logf("%d strictly consistent, %d relaxed-consistent", strictYes, relaxedYes)
	if strictYes == 0 || relaxedYes <= strictYes {
		t.Fatalf("degenerate sample: %d strict, %d relaxed consistent", strictYes, relaxedYes)
	}
}
