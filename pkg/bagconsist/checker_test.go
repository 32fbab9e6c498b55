package bagconsist_test

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"bagconsistency/internal/core"
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

// TestForceILPOnAcyclicSchema: the monolithic search is a measurement arm
// of core that the Checker cannot select. It decides an acyclic pair the
// Checker composes, with the same verdict.
func TestForceILPOnAcyclicSchema(t *testing.T) {
	ctx := context.Background()
	r, s := section3Pair(t)
	pair, err := bagconsist.NewCollection2(r, s)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := pair.GloballyConsistentContext(ctx, core.GlobalOptions{ForceILP: true})
	if err != nil {
		t.Fatal(err)
	}
	if !dec.Consistent {
		t.Fatal("pair must be consistent under forced ILP")
	}
	if dec.Method != core.MethodILP {
		t.Fatalf("method = %q, want integer-program (forced)", dec.Method)
	}
	rep, err := bagconsist.New().CheckGlobal(ctx, pair)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Consistent || rep.Method != "acyclic-jointree" {
		t.Fatalf("Checker: consistent=%v method=%q, want the acyclic composition", rep.Consistent, rep.Method)
	}
}
