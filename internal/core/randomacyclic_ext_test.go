package core_test

// External test package so the randomized generators of internal/gen
// (which imports core) can drive core's algorithms without an import cycle.

import (
	"math/rand"
	"testing"

	"bagconsistency/internal/bag"
	"bagconsistency/internal/core"
	"bagconsistency/internal/gen"
)

func TestTheorem6OnRandomAcyclicSchemas(t *testing.T) {
	// The acyclic direction of Theorem 2 and the Theorem 6 construction on
	// random acyclic hypergraphs of varied shapes (not just paths/stars):
	// marginal collections must be decided consistent by the join-tree
	// composition, with a verified witness within the support bound.
	rng := rand.New(rand.NewSource(51))
	for trial := 0; trial < 30; trial++ {
		h, err := gen.RandomAcyclicHypergraph(rng, 2+rng.Intn(6), 1+rng.Intn(3))
		if err != nil {
			t.Fatal(err)
		}
		c, _, err := gen.RandomConsistent(rng, h, 4+rng.Intn(6), 8, 2)
		if err != nil {
			t.Fatal(err)
		}
		dec, err := c.GloballyConsistent(core.GlobalOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if !dec.Consistent {
			t.Fatalf("trial %d: marginal collection over %v rejected", trial, h)
		}
		if dec.Method != core.MethodAcyclic {
			t.Fatalf("trial %d: method = %s", trial, dec.Method)
		}
		ok, err := c.VerifyWitness(dec.Witness)
		if err != nil || !ok {
			t.Fatalf("trial %d: witness invalid (err=%v)", trial, err)
		}
		sum := 0
		for _, b := range c.Bags() {
			sum += b.SupportSize()
		}
		if dec.Witness.SupportSize() > sum {
			t.Fatalf("trial %d: Theorem 6 support bound violated: %d > %d", trial, dec.Witness.SupportSize(), sum)
		}
	}
}

func TestAcyclicAgreesWithILPOnRandomAcyclicSchemas(t *testing.T) {
	// Dichotomy cross-check on random acyclic shapes, consistent and
	// perturbed. The acyclic path tests only join-tree (parent, child)
	// pairs, so its verdict is also held to the all-pairs test.
	agree := func(trial int, c *core.Collection) bool {
		t.Helper()
		fast, err := c.GloballyConsistent(core.GlobalOptions{})
		if err != nil {
			t.Fatal(err)
		}
		slow, err := c.GloballyConsistent(core.GlobalOptions{ForceILP: true, MaxNodes: 5_000_000})
		if err != nil {
			t.Fatal(err)
		}
		pw, err := c.PairwiseConsistent()
		if err != nil {
			t.Fatal(err)
		}
		if fast.Consistent != slow.Consistent || fast.Consistent != pw {
			t.Fatalf("trial %d: acyclic=%v ilp=%v pairwise=%v over %v", trial, fast.Consistent, slow.Consistent, pw, c.Hypergraph())
		}
		return fast.Consistent
	}
	rng := rand.New(rand.NewSource(53))
	for trial := 0; trial < 20; trial++ {
		h, err := gen.RandomAcyclicHypergraph(rng, 2+rng.Intn(3), 1+rng.Intn(2))
		if err != nil {
			t.Fatal(err)
		}
		c, _, err := gen.RandomConsistent(rng, h, 3+rng.Intn(3), 4, 2)
		if err != nil {
			t.Fatal(err)
		}
		if trial%2 == 1 {
			c, err = gen.Perturb(rng, c)
			if err != nil {
				t.Fatal(err)
			}
		}
		agree(trial, c)
	}

	// Perturbations that keep every bag's total: one unit moves between
	// two support tuples of one bag, so only a marginal on shared
	// attributes can refute the collection.
	rng = rand.New(rand.NewSource(54))
	refuted := 0
	for trial := 0; trial < 40; trial++ {
		h, err := gen.RandomAcyclicHypergraph(rng, 3+rng.Intn(4), 1+rng.Intn(2))
		if err != nil {
			t.Fatal(err)
		}
		c, _, err := gen.RandomConsistent(rng, h, 4+rng.Intn(4), 4, 2)
		if err != nil {
			t.Fatal(err)
		}
		c, err = moveUnit(rng, c)
		if err != nil {
			t.Fatal(err)
		}
		if !agree(trial, c) {
			refuted++
		}
	}
	if refuted == 0 {
		t.Fatal("no total-preserving perturbation was refuted; the check is vacuous")
	}
}

// moveUnit moves one unit of multiplicity from one support tuple to
// another inside one bag of the collection, keeping every bag's total.
func moveUnit(rng *rand.Rand, c *core.Collection) (*core.Collection, error) {
	bags := c.Bags()
	var candidates []int
	for i, b := range bags {
		if b.SupportSize() >= 2 {
			candidates = append(candidates, i)
		}
	}
	if len(candidates) == 0 {
		return c, nil
	}
	i := candidates[rng.Intn(len(candidates))]
	b := bags[i].Clone()
	tuples := b.Tuples()
	k := rng.Intn(len(tuples))
	l := (k + 1 + rng.Intn(len(tuples)-1)) % len(tuples)
	from, to := tuples[k].Values(), tuples[l].Values()
	if err := b.Set(from, b.Count(from)-1); err != nil {
		return nil, err
	}
	if err := b.Add(to, 1); err != nil {
		return nil, err
	}
	out := append([]*bag.Bag(nil), bags...)
	out[i] = b
	return core.NewCollection(c.Hypergraph(), out)
}
