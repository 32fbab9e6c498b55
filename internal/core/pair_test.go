package core

import (
	"context"
	"math/rand"
	"testing"

	"bagconsistency/internal/bag"
	"bagconsistency/internal/ilp"
)

func mustBag(t *testing.T, s *bag.Schema, rows [][]string, counts []int64) *bag.Bag {
	t.Helper()
	b, err := bag.FromRows(s, rows, counts)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// section3Pair returns the bags R1(AB), S1(BC) of Section 3.
func section3Pair(t *testing.T) (*bag.Bag, *bag.Bag) {
	t.Helper()
	r := mustBag(t, bag.MustSchema("A", "B"), [][]string{{"1", "2"}, {"2", "2"}}, nil)
	s := mustBag(t, bag.MustSchema("B", "C"), [][]string{{"2", "1"}, {"2", "2"}}, nil)
	return r, s
}

// randomConsistentPair samples a global bag T over ABC and returns its
// marginals on AB and BC (consistent by construction) plus T itself.
func randomConsistentPair(t *testing.T, rng *rand.Rand) (*bag.Bag, *bag.Bag, *bag.Bag) {
	t.Helper()
	abc := bag.MustSchema("A", "B", "C")
	g := bag.New(abc)
	n := 1 + rng.Intn(8)
	for i := 0; i < n; i++ {
		vals := []string{
			string(rune('a' + rng.Intn(3))),
			string(rune('a' + rng.Intn(3))),
			string(rune('a' + rng.Intn(3))),
		}
		if err := g.Add(vals, 1+rng.Int63n(9)); err != nil {
			t.Fatal(err)
		}
	}
	r, err := g.Marginal(bag.MustSchema("A", "B"))
	if err != nil {
		t.Fatal(err)
	}
	s, err := g.Marginal(bag.MustSchema("B", "C"))
	if err != nil {
		t.Fatal(err)
	}
	return r, s, g
}

func TestPairConsistentSection3(t *testing.T) {
	r, s := section3Pair(t)
	ok, err := PairConsistent(r, s)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("R1 and S1 are consistent (paper, Section 3)")
	}
}

func TestPairInconsistentWhenMarginalsDiffer(t *testing.T) {
	r := mustBag(t, bag.MustSchema("A", "B"), [][]string{{"1", "2"}}, []int64{3})
	s := mustBag(t, bag.MustSchema("B", "C"), [][]string{{"2", "9"}}, []int64{2})
	ok, err := PairConsistent(r, s)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("bags with unequal shared marginals must be inconsistent")
	}
	if _, ok, _ := PairWitness(r, s); ok {
		t.Fatal("PairWitness must refuse inconsistent bags")
	}
	if _, ok, _ := MinimalPairWitness(r, s); ok {
		t.Fatal("MinimalPairWitness must refuse inconsistent bags")
	}
}

func TestRelationConsistentButBagInconsistent(t *testing.T) {
	// Same supports, different multiplicities: consistent as relations but
	// not as bags — the gap the paper opens with.
	r := mustBag(t, bag.MustSchema("A", "B"), [][]string{{"1", "2"}}, []int64{3})
	s := mustBag(t, bag.MustSchema("B", "C"), [][]string{{"2", "1"}}, []int64{5})
	ok, err := PairConsistent(r, s)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("multiplicity mismatch must break bag consistency")
	}
}

func TestPairWitnessIsValid(t *testing.T) {
	r, s := section3Pair(t)
	w, ok, err := PairWitness(r, s)
	if err != nil || !ok {
		t.Fatalf("witness failed: ok=%v err=%v", ok, err)
	}
	wr, err := w.Marginal(r.Schema())
	if err != nil {
		t.Fatal(err)
	}
	ws, err := w.Marginal(s.Schema())
	if err != nil {
		t.Fatal(err)
	}
	if !wr.Equal(r) || !ws.Equal(s) {
		t.Fatalf("witness marginals wrong:\n%v\n%v", wr, ws)
	}
}

// pairCollection wraps R and S as a two-bag collection, whose witnesses
// are the bags witnessing the pair's consistency.
func pairCollection(t *testing.T, r, s *bag.Bag) *Collection {
	t.Helper()
	c, err := NewCollection2(r, s)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestSection3ExactlyTwoWitnesses(t *testing.T) {
	// The paper: T1 = {(1,2,2):1, (2,2,1):1} and T2 = {(1,2,1):1,
	// (2,2,2):1} witness R1, S1 "but, as one can easily verify, no other
	// bag".
	r, s := section3Pair(t)
	n, err := pairCollection(t, r, s).CountWitnesses(ilp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("witness count = %d, want 2", n)
	}
	abc := bag.MustSchema("A", "B", "C")
	t1 := mustBag(t, abc, [][]string{{"1", "2", "2"}, {"2", "2", "1"}}, nil)
	t2 := mustBag(t, abc, [][]string{{"1", "2", "1"}, {"2", "2", "2"}}, nil)
	seen := map[string]bool{}
	err = pairCollection(t, r, s).EnumerateWitnesses(ilp.Options{}, func(w *bag.Bag) error {
		switch {
		case w.Equal(t1):
			seen["t1"] = true
		case w.Equal(t2):
			seen["t2"] = true
		default:
			t.Errorf("unexpected witness:\n%v", w)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !seen["t1"] || !seen["t2"] {
		t.Errorf("missing expected witnesses: %v", seen)
	}
}

func TestSection3WitnessSupportsProperSubsetOfJoin(t *testing.T) {
	// Every witness support is strictly inside (R1 ⋈b S1)' — the join does
	// not witness bag consistency.
	r, s := section3Pair(t)
	join, err := bag.JoinSupports(r, s)
	if err != nil {
		t.Fatal(err)
	}
	err = pairCollection(t, r, s).EnumerateWitnesses(ilp.Options{}, func(w *bag.Bag) error {
		if w.Len() >= join.Len() {
			t.Errorf("witness support size %d not strictly below join size %d", w.Len(), join.Len())
		}
		if !w.SupportBag().ContainedIn(join) {
			t.Error("witness support escapes the join of supports (violates Lemma 1)")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestLemma2EquivalencesProperty(t *testing.T) {
	// The four characterizations of Lemma 2 must agree: shared-marginal
	// equality, saturated flow, rational LP feasibility, and integer
	// feasibility — on both consistent and perturbed pairs.
	rng := rand.New(rand.NewSource(101))
	for trial := 0; trial < 60; trial++ {
		r, s, _ := randomConsistentPair(t, rng)
		if trial%2 == 1 && s.Len() > 0 {
			// Perturb one multiplicity to (usually) break consistency.
			tup := s.Tuples()[rng.Intn(s.Len())]
			if err := s.AddTuple(tup, 1+rng.Int63n(3)); err != nil {
				t.Fatal(err)
			}
		}
		m, err := PairConsistent(r, s)
		if err != nil {
			t.Fatal(err)
		}
		f, err := PairConsistentViaFlow(r, s)
		if err != nil {
			t.Fatal(err)
		}
		l, err := PairConsistentViaLP(r, s)
		if err != nil {
			t.Fatal(err)
		}
		ii, err := PairConsistentViaILPContext(context.Background(), r, s, ilp.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if m != f || m != l || m != ii {
			t.Fatalf("trial %d: marginal=%v flow=%v lp=%v ilp=%v", trial, m, f, l, ii)
		}
	}
}

func TestPairWitnessRandomProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(103))
	for trial := 0; trial < 40; trial++ {
		r, s, _ := randomConsistentPair(t, rng)
		w, ok, err := PairWitness(r, s)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatal("marginals of one bag must be consistent")
		}
		wr, err := w.Marginal(r.Schema())
		if err != nil {
			t.Fatal(err)
		}
		ws, err := w.Marginal(s.Schema())
		if err != nil {
			t.Fatal(err)
		}
		if !wr.Equal(r) || !ws.Equal(s) {
			t.Fatalf("trial %d: witness marginals wrong", trial)
		}
	}
}

func TestMinimalPairWitnessTheorem5Bound(t *testing.T) {
	// Theorem 5: a minimal witness has ‖W‖supp ≤ ‖R‖supp + ‖S‖supp.
	rng := rand.New(rand.NewSource(107))
	for trial := 0; trial < 40; trial++ {
		r, s, _ := randomConsistentPair(t, rng)
		w, ok, err := MinimalPairWitness(r, s)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatal("consistent pair rejected")
		}
		if w.SupportSize() > r.SupportSize()+s.SupportSize() {
			t.Fatalf("trial %d: ‖W‖supp = %d > %d + %d", trial,
				w.SupportSize(), r.SupportSize(), s.SupportSize())
		}
		wr, _ := w.Marginal(r.Schema())
		ws, _ := w.Marginal(s.Schema())
		if !wr.Equal(r) || !ws.Equal(s) {
			t.Fatalf("trial %d: minimal witness is not a witness", trial)
		}
	}
}

func TestMinimalPairWitnessIsMinimal(t *testing.T) {
	// No witness's support is strictly contained in the minimal witness's
	// support — checked by enumerating all witnesses on a small instance.
	r, s := section3Pair(t)
	w, ok, err := MinimalPairWitness(r, s)
	if err != nil || !ok {
		t.Fatalf("ok=%v err=%v", ok, err)
	}
	err = pairCollection(t, r, s).EnumerateWitnesses(ilp.Options{}, func(other *bag.Bag) error {
		if other.Len() < w.Len() && other.SupportBag().ContainedIn(w.SupportBag()) {
			t.Errorf("witness with smaller support inside the minimal one:\n%v", other)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTheorem3BoundsForPairs(t *testing.T) {
	// Theorem 3(1): witness multiplicities never exceed the max input
	// multiplicity. Theorem 3(2): support ≤ sum of unary sizes.
	rng := rand.New(rand.NewSource(109))
	for trial := 0; trial < 30; trial++ {
		r, s, _ := randomConsistentPair(t, rng)
		w, ok, err := PairWitness(r, s)
		if err != nil || !ok {
			t.Fatalf("ok=%v err=%v", ok, err)
		}
		maxMult := r.MultiplicityBound()
		if s.MultiplicityBound() > maxMult {
			maxMult = s.MultiplicityBound()
		}
		if w.MultiplicityBound() > maxMult {
			t.Fatalf("trial %d: ‖W‖mu = %d > %d", trial, w.MultiplicityBound(), maxMult)
		}
		ru, _ := r.UnarySize()
		su, _ := s.UnarySize()
		if int64(w.SupportSize()) > ru+su {
			t.Fatalf("trial %d: ‖W‖supp = %d > ‖R‖u + ‖S‖u = %d", trial, w.SupportSize(), ru+su)
		}
	}
}

func TestEmptyBagsAreConsistent(t *testing.T) {
	r := bag.New(bag.MustSchema("A", "B"))
	s := bag.New(bag.MustSchema("B", "C"))
	ok, err := PairConsistent(r, s)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("two empty bags are consistent")
	}
	w, ok, err := PairWitness(r, s)
	if err != nil || !ok {
		t.Fatalf("ok=%v err=%v", ok, err)
	}
	if w.Len() != 0 {
		t.Errorf("witness of empty bags should be empty, got %v", w)
	}
	n, err := pairCollection(t, r, s).CountWitnesses(ilp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Errorf("empty pair has %d witnesses, want exactly the empty bag", n)
	}
}

func TestEmptyVsNonEmptyInconsistent(t *testing.T) {
	r := bag.New(bag.MustSchema("A", "B"))
	s := mustBag(t, bag.MustSchema("B", "C"), [][]string{{"1", "1"}}, nil)
	ok, err := PairConsistent(r, s)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("empty and non-empty bags cannot be consistent")
	}
	n, err := pairCollection(t, r, s).CountWitnesses(ilp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Errorf("witness count = %d, want 0", n)
	}
}

func TestDisjointSchemasPair(t *testing.T) {
	// With X ∩ Y = ∅ the bags are consistent iff total multiplicities agree
	// (both marginals on the empty schema are the empty tuple with the
	// total count).
	a := mustBag(t, bag.MustSchema("A"), [][]string{{"1"}, {"2"}}, []int64{2, 3})
	b1 := mustBag(t, bag.MustSchema("B"), [][]string{{"x"}}, []int64{5})
	b2 := mustBag(t, bag.MustSchema("B"), [][]string{{"x"}}, []int64{4})

	ok, err := PairConsistent(a, b1)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("equal totals over disjoint schemas should be consistent")
	}
	ok, err = PairConsistent(a, b2)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("unequal totals over disjoint schemas should be inconsistent")
	}
	w, ok, err := PairWitness(a, b1)
	if err != nil || !ok {
		t.Fatalf("ok=%v err=%v", ok, err)
	}
	if got := w.Count([]string{"1", "x"}); got != 2 {
		t.Errorf("witness count = %d, want 2", got)
	}
}

func TestSameSchemaPair(t *testing.T) {
	// With X = Y, consistency degenerates to equality.
	s := bag.MustSchema("A", "B")
	r1 := mustBag(t, s, [][]string{{"1", "2"}}, []int64{4})
	r2 := mustBag(t, s, [][]string{{"1", "2"}}, []int64{4})
	r3 := mustBag(t, s, [][]string{{"1", "2"}}, []int64{5})
	if ok, _ := PairConsistent(r1, r2); !ok {
		t.Error("equal bags over the same schema are consistent")
	}
	if ok, _ := PairConsistent(r1, r3); ok {
		t.Error("different bags over the same schema are inconsistent")
	}
}
