package bagconsist_test

import (
	"context"
	"fmt"
	"log"

	"bagconsistency/pkg/bagconsist"
)

// mustBag builds a bag over attrs from rows with per-row counts, panicking
// on malformed literals (examples only).
func mustBag(attrs []string, rows [][]string, counts []int64) *bagconsist.Bag {
	b, err := bagconsist.BagFromRows(bagconsist.MustSchema(attrs...), rows, counts)
	if err != nil {
		panic(err)
	}
	return b
}

// Two bags are consistent exactly when their marginals on the shared
// attributes agree (Lemma 2 of the paper); CheckPair runs that strongly
// polynomial test.
func ExampleChecker_CheckPair() {
	r := mustBag([]string{"A", "B"},
		[][]string{{"a1", "b1"}, {"a2", "b2"}}, []int64{2, 1})
	s := mustBag([]string{"B", "C"},
		[][]string{{"b1", "c1"}, {"b2", "c2"}}, []int64{2, 1})

	checker := bagconsist.New()
	rep, err := checker.CheckPair(context.Background(), r, s)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("consistent=%v method=%s\n", rep.Consistent, rep.Method)
	// Output:
	// consistent=true method=marginal
}

// A collection over an acyclic schema is decided by the polynomial
// join-tree composition, which also constructs a witnessing bag whose
// marginals are exactly the inputs.
func ExampleChecker_CheckGlobal() {
	r := mustBag([]string{"A", "B"},
		[][]string{{"a1", "b1"}, {"a2", "b2"}}, []int64{2, 1})
	s := mustBag([]string{"B", "C"},
		[][]string{{"b1", "c1"}, {"b2", "c2"}}, []int64{2, 1})
	coll, err := bagconsist.NewCollection2(r, s)
	if err != nil {
		log.Fatal(err)
	}

	checker := bagconsist.New()
	rep, err := checker.CheckGlobal(context.Background(), coll)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("consistent=%v method=%s witness-support=%d\n",
		rep.Consistent, rep.Method, rep.WitnessSupport)

	w, err := rep.WitnessBag()
	if err != nil {
		log.Fatal(err)
	}
	ok, err := checker.VerifyWitness(coll, w)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("witness-verifies=%v\n", ok)
	// Output:
	// consistent=true method=acyclic-jointree witness-support=2
	// witness-verifies=true
}

// CheckBatch serves many instances through a bounded worker pool; a
// failing or inconsistent instance never poisons its neighbors.
func ExampleChecker_CheckBatch() {
	r := mustBag([]string{"A", "B"},
		[][]string{{"a1", "b1"}, {"a2", "b2"}}, []int64{2, 1})
	s := mustBag([]string{"B", "C"},
		[][]string{{"b1", "c1"}, {"b2", "c2"}}, []int64{2, 1})
	// sBad has a different B-marginal, so (r, sBad) is inconsistent.
	sBad := mustBag([]string{"B", "C"},
		[][]string{{"b1", "c1"}, {"b2", "c2"}}, []int64{1, 2})

	good, err := bagconsist.NewCollection2(r, s)
	if err != nil {
		log.Fatal(err)
	}
	bad, err := bagconsist.NewCollection2(r, sBad)
	if err != nil {
		log.Fatal(err)
	}

	checker := bagconsist.New(bagconsist.WithParallelism(2))
	reports, err := checker.CheckBatch(context.Background(), []*bagconsist.Collection{good, bad})
	if err != nil {
		log.Fatal(err)
	}
	for i, rep := range reports {
		fmt.Printf("instance %d: consistent=%v\n", i, rep.Consistent)
	}
	// Output:
	// instance 0: consistent=true
	// instance 1: consistent=false
}

// With a cache, a repeat of an already-checked instance — even
// tuple-permuted or consistently value-renamed — is served from the
// cache, skipping the decision procedure entirely.
func Example_withCache() {
	r := mustBag([]string{"A", "B"},
		[][]string{{"a1", "b1"}, {"a2", "b2"}}, []int64{2, 1})
	s := mustBag([]string{"B", "C"},
		[][]string{{"b1", "c1"}, {"b2", "c2"}}, []int64{2, 1})
	coll, err := bagconsist.NewCollection2(r, s)
	if err != nil {
		log.Fatal(err)
	}

	checker := bagconsist.New(bagconsist.WithCache(1024))
	ctx := context.Background()
	first, err := checker.CheckGlobal(ctx, coll)
	if err != nil {
		log.Fatal(err)
	}
	second, err := checker.CheckGlobal(ctx, coll)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("first: consistent=%v cache-hit=%v\n", first.Consistent, first.CacheHit)
	fmt.Printf("second: consistent=%v cache-hit=%v\n", second.Consistent, second.CacheHit)
	// Output:
	// first: consistent=true cache-hit=false
	// second: consistent=true cache-hit=true
}
