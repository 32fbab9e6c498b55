package bagconsist_test

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"bagconsistency/internal/gen"
	"bagconsistency/internal/hypergraph"
	"bagconsistency/pkg/bagconsist"
)

// section3Pair returns the R1(A,B)/S1(B,C) pair of Section 3.
func section3Pair(t *testing.T) (*bagconsist.Bag, *bagconsist.Bag) {
	t.Helper()
	r, s, err := gen.Section3Family(2)
	if err != nil {
		t.Fatal(err)
	}
	return r, s
}

func TestCheckPairMethodsAgree(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(1))
	methods := []bagconsist.Method{bagconsist.Auto, bagconsist.Flow, bagconsist.LP, bagconsist.ILP}
	for trial := 0; trial < 20; trial++ {
		r, s, err := gen.RandomConsistentPair(rng, 8, 16, 3)
		if err != nil {
			t.Fatal(err)
		}
		// Perturb half the instances into (likely) inconsistency.
		if trial%2 == 1 && s.Len() > 0 {
			tup := s.Tuples()[rng.Intn(s.Len())]
			if err := s.AddTuple(tup, 1); err != nil {
				t.Fatal(err)
			}
		}
		var got []bool
		for _, m := range methods {
			rep, err := bagconsist.New(bagconsist.WithMethod(m)).CheckPair(ctx, r, s)
			if err != nil {
				t.Fatalf("method %v: %v", m, err)
			}
			if want := m.String(); m != bagconsist.Auto && rep.Method != want {
				t.Fatalf("method label = %q, want %q", rep.Method, want)
			}
			got = append(got, rep.Consistent)
		}
		for i := 1; i < len(got); i++ {
			if got[i] != got[0] {
				t.Fatalf("trial %d: Lemma 2 equivalence broken: %v", trial, got)
			}
		}
	}
}

func TestPairWitnessMinimalBound(t *testing.T) {
	ctx := context.Background()
	r, s := section3Pair(t)
	rep, err := bagconsist.New().PairWitness(ctx, r, s)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Consistent {
		t.Fatal("Section 3 pair must be consistent")
	}
	if rep.WitnessSupport > r.SupportSize()+s.SupportSize() {
		t.Fatalf("Theorem 5 bound violated: %d > %d", rep.WitnessSupport, r.SupportSize()+s.SupportSize())
	}
	w, err := rep.WitnessBag()
	if err != nil {
		t.Fatal(err)
	}
	coll, err := bagconsist.NewCollection2(r, s)
	if err != nil {
		t.Fatal(err)
	}
	ok, err := coll.VerifyWitness(w)
	if err != nil || !ok {
		t.Fatalf("witness fails verification: ok=%v err=%v", ok, err)
	}
}

func TestCheckGlobalAcyclicWitness(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(7))
	coll, _, err := gen.RandomConsistent(rng, hypergraph.Star(6), 24, 1<<10, 4)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := bagconsist.New().CheckGlobal(ctx, coll)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Consistent {
		t.Fatal("marginal collection must be consistent")
	}
	if rep.Method != "acyclic-jointree" {
		t.Fatalf("method = %q, want acyclic-jointree", rep.Method)
	}
	w, err := rep.WitnessBag()
	if err != nil {
		t.Fatal(err)
	}
	ok, err := coll.VerifyWitness(w)
	if err != nil || !ok {
		t.Fatalf("witness fails verification: ok=%v err=%v", ok, err)
	}
	sum := 0
	for _, b := range coll.Bags() {
		sum += b.SupportSize()
	}
	if rep.WitnessSupport > sum {
		t.Fatalf("Theorem 6 bound violated: %d > %d", rep.WitnessSupport, sum)
	}
}

func TestCheckGlobalTseitinInconsistent(t *testing.T) {
	ctx := context.Background()
	coll, err := bagconsist.TseitinCollection(hypergraph.Triangle())
	if err != nil {
		t.Fatal(err)
	}
	rep, err := bagconsist.New().CheckGlobal(ctx, coll)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Consistent {
		t.Fatal("Tseitin triangle must be globally inconsistent")
	}
	if rep.Witness != nil {
		t.Fatal("inconsistent report must carry no witness")
	}
	if _, werr := bagconsist.New().Witness(ctx, coll); !errors.Is(werr, bagconsist.ErrInconsistent) {
		t.Fatalf("Witness error = %v, want ErrInconsistent", werr)
	}
}

func TestKWiseHierarchyOnTseitin(t *testing.T) {
	ctx := context.Background()
	coll, err := bagconsist.TseitinCollection(hypergraph.Triangle())
	if err != nil {
		t.Fatal(err)
	}
	checker := bagconsist.New()
	two, err := checker.KWiseConsistent(ctx, coll, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !two {
		t.Fatal("Tseitin triangle is pairwise (2-wise) consistent")
	}
	three, err := checker.KWiseConsistent(ctx, coll, 3)
	if err != nil {
		t.Fatal(err)
	}
	if three {
		t.Fatal("Tseitin triangle is not 3-wise consistent")
	}
}

func TestCountWitnessesSection3(t *testing.T) {
	ctx := context.Background()
	checker := bagconsist.New()
	for n := 2; n <= 6; n++ {
		r, s, err := gen.Section3Family(n)
		if err != nil {
			t.Fatal(err)
		}
		got, err := checker.CountPairWitnesses(ctx, r, s)
		if err != nil {
			t.Fatal(err)
		}
		if want := int64(1) << uint(n-1); got != want {
			t.Fatalf("n=%d: count=%d want %d", n, got, want)
		}
	}
}

func TestNodeLimitSurfacesAsErrNodeLimit(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(42))
	inst, err := gen.RandomThreeDCT(rng, 3, 1024)
	if err != nil {
		t.Fatal(err)
	}
	coll, err := inst.ToCollection()
	if err != nil {
		t.Fatal(err)
	}
	_, err = bagconsist.New(
		bagconsist.WithMaxNodes(5),
	).CheckGlobal(ctx, coll)
	if !errors.Is(err, bagconsist.ErrNodeLimit) {
		t.Fatalf("err = %v, want ErrNodeLimit", err)
	}
}

func TestGlobalMethodFlowRequiresPair(t *testing.T) {
	ctx := context.Background()
	coll, err := bagconsist.TseitinCollection(hypergraph.Triangle())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bagconsist.New(bagconsist.WithMethod(bagconsist.Flow)).CheckGlobal(ctx, coll); err == nil {
		t.Fatal("Flow on a 3-bag collection must error")
	}
	// On a two-bag collection it degrades to the pair check.
	r, s := section3Pair(t)
	pair, err := bagconsist.NewCollection2(r, s)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := bagconsist.New(bagconsist.WithMethod(bagconsist.Flow)).CheckGlobal(ctx, pair)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Consistent || rep.Method != bagconsist.Flow.String() {
		t.Fatalf("got consistent=%v method=%q", rep.Consistent, rep.Method)
	}
}

// TestWitnessUnderFlowMethod guards the Witness contract: even when the
// configured method (Flow/LP) decides without constructing a witness,
// Witness must still return one.
func TestWitnessUnderFlowMethod(t *testing.T) {
	ctx := context.Background()
	r, s := section3Pair(t)
	pair, err := bagconsist.NewCollection2(r, s)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []bagconsist.Method{bagconsist.Flow, bagconsist.LP} {
		rep, err := bagconsist.New(bagconsist.WithMethod(m)).Witness(ctx, pair)
		if err != nil {
			t.Fatalf("method %v: %v", m, err)
		}
		w, err := rep.WitnessBag()
		if err != nil {
			t.Fatal(err)
		}
		if w == nil {
			t.Fatalf("method %v: Witness returned success with a nil witness", m)
		}
		ok, err := pair.VerifyWitness(w)
		if err != nil || !ok {
			t.Fatalf("method %v: witness fails verification: ok=%v err=%v", m, ok, err)
		}
	}
}

func TestForceILPOnAcyclicSchema(t *testing.T) {
	ctx := context.Background()
	r, s := section3Pair(t)
	pair, err := bagconsist.NewCollection2(r, s)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := bagconsist.New(bagconsist.WithMethod(bagconsist.ILP)).CheckGlobal(ctx, pair)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Consistent {
		t.Fatal("pair must be consistent under forced ILP")
	}
	if rep.Method != "integer-program" {
		t.Fatalf("method = %q, want integer-program (forced)", rep.Method)
	}
}
