package core_test

import (
	"math/rand"
	"testing"

	"bagconsistency/internal/bag"
	"bagconsistency/internal/core"
	"bagconsistency/internal/gen"
	"bagconsistency/internal/hypergraph"
	"bagconsistency/internal/reductions"
)

// mustBag builds a bag over attrs with the given rows.
func mustBag(t *testing.T, attrs []string, rows map[string]int64) *bag.Bag {
	t.Helper()
	s, err := bag.NewSchema(attrs...)
	if err != nil {
		t.Fatal(err)
	}
	b := bag.New(s)
	for k, c := range rows {
		vals := make([]string, 0, len(attrs))
		for _, ch := range k {
			vals = append(vals, string(ch))
		}
		if err := b.Add(vals, c); err != nil {
			t.Fatal(err)
		}
	}
	return b
}

// parityTriangle returns the 3-bag parity instance over {A,B},{B,C},{A,C}:
// pairwise consistent always; globally consistent iff the AC bag demands
// equality (even parity) rather than inequality.
func parityTriangle(t *testing.T, consistent bool) *core.Collection {
	t.Helper()
	h := hypergraph.Must([]string{"A", "B"}, []string{"B", "C"}, []string{"A", "C"})
	eq := map[string]int64{"00": 1, "11": 1}
	ne := map[string]int64{"01": 1, "10": 1}
	ac := ne
	if consistent {
		ac = eq
	}
	bags := []*bag.Bag{
		mustBag(t, []string{"A", "B"}, eq),
		mustBag(t, []string{"B", "C"}, eq),
		mustBag(t, []string{"A", "C"}, ac),
	}
	coll, err := core.NewCollection(h, bags)
	if err != nil {
		t.Fatal(err)
	}
	return coll
}

// withFringe extends a parity triangle with a path fringe C–D–E whose
// bags are marginal-consistent with the triangle: the schema becomes
// near-acyclic (triangle core, two fringe edges).
func withFringe(t *testing.T, consistent bool) *core.Collection {
	t.Helper()
	h := hypergraph.Must(
		[]string{"A", "B"}, []string{"B", "C"}, []string{"A", "C"},
		[]string{"C", "D"}, []string{"D", "E"},
	)
	eq := map[string]int64{"00": 1, "11": 1}
	ne := map[string]int64{"01": 1, "10": 1}
	ac := ne
	if consistent {
		ac = eq
	}
	bags := []*bag.Bag{
		mustBag(t, []string{"A", "B"}, eq),
		mustBag(t, []string{"B", "C"}, eq),
		mustBag(t, []string{"A", "C"}, ac),
		mustBag(t, []string{"C", "D"}, eq), // marginal on C: uniform(1,1)
		mustBag(t, []string{"D", "E"}, eq),
	}
	coll, err := core.NewCollection(h, bags)
	if err != nil {
		t.Fatal(err)
	}
	return coll
}

func decide(t *testing.T, c *core.Collection, opts core.GlobalOptions) *core.Decision {
	t.Helper()
	dec, err := c.GloballyConsistent(opts)
	if err != nil {
		t.Fatal(err)
	}
	return dec
}

// verifyWitness fails the test unless dec carries a witness of coll.
func verifyWitness(t *testing.T, coll *core.Collection, dec *core.Decision, what string) {
	t.Helper()
	ok, err := coll.VerifyWitness(dec.Witness)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatalf("%s: witness does not verify against the full collection", what)
	}
}

// sameDecision fails the test unless Auto and the monolith returned the
// same Decision: verdict, Method, search statistics and witness rows in
// their listed order.
func sameDecision(t *testing.T, auto, mono *core.Decision, what string) {
	t.Helper()
	if auto.Consistent != mono.Consistent || auto.Method != mono.Method || auto.Nodes != mono.Nodes {
		t.Fatalf("%s: Auto %+v, ForceILP %+v", what, *auto, *mono)
	}
	if (auto.Witness == nil) != (mono.Witness == nil) {
		t.Fatalf("%s: witness presence differs: Auto %v, ForceILP %v", what, auto.Witness, mono.Witness)
	}
	if auto.Witness != nil && auto.Witness.String() != mono.Witness.String() {
		t.Fatalf("%s: witnesses differ:\nAuto\n%s\nForceILP\n%s", what, auto.Witness, mono.Witness)
	}
}

func TestHybridParityInstances(t *testing.T) {
	for _, consistent := range []bool{true, false} {
		// A pure cyclic core: Auto's search is the monolith's, Decision for
		// Decision.
		tri := parityTriangle(t, consistent)
		auto := decide(t, tri, core.GlobalOptions{})
		sameDecision(t, auto, decide(t, tri, core.GlobalOptions{ForceILP: true}), "triangle")
		if auto.Consistent != consistent || auto.Method != core.MethodILP {
			t.Fatalf("triangle consistent=%v: got %v by %q", consistent, auto.Consistent, auto.Method)
		}
		if consistent {
			verifyWitness(t, tri, auto, "triangle")
		}

		// A fringed core: Auto searches the core and reattaches the fringe.
		fr := withFringe(t, consistent)
		hybrid := decide(t, fr, core.GlobalOptions{})
		mono := decide(t, fr, core.GlobalOptions{ForceILP: true})
		if hybrid.Consistent != consistent || mono.Consistent != consistent {
			t.Fatalf("fringe consistent=%v: Auto=%v ForceILP=%v", consistent, hybrid.Consistent, mono.Consistent)
		}
		if hybrid.Method != core.MethodHybrid || mono.Method != core.MethodILP {
			t.Fatalf("fringe methods: Auto %q, ForceILP %q", hybrid.Method, mono.Method)
		}
		if consistent {
			verifyWitness(t, fr, hybrid, "fringe")
		}
	}
}

// TestAutoOnThreeDCTTrianglesIsTheMonolith pins that decomposition leaves
// pure cyclic cores alone: on 3DCT triangles, feasible and search-bound
// infeasible, Auto returns exactly the Decision ForceILP returns.
func TestAutoOnThreeDCTTrianglesIsTheMonolith(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	feasible, err := gen.RandomThreeDCT(rng, 3, 6)
	if err != nil {
		t.Fatal(err)
	}
	infeasible, err := gen.InfeasibleThreeDCT(rng, 2, 3, 200, 200_000)
	if err != nil {
		t.Fatalf("no infeasible instance at this seed: %v", err)
	}
	for name, inst := range map[string]*reductions.ThreeDCT{"feasible": feasible, "infeasible": infeasible} {
		coll, err := inst.ToCollection()
		if err != nil {
			t.Fatal(err)
		}
		auto := decide(t, coll, core.GlobalOptions{})
		sameDecision(t, auto, decide(t, coll, core.GlobalOptions{ForceILP: true}), name)
		if auto.Method != core.MethodILP || auto.Consistent != (name == "feasible") {
			t.Fatalf("%s: got %v by %q", name, auto.Consistent, auto.Method)
		}
	}
}

func TestHybridMatchesMonolithicOnGeneratedFamilies(t *testing.T) {
	rng := rand.New(rand.NewSource(37))

	// Feasible near-acyclic schemas across the whole k dial.
	for k := 0; k <= 3; k++ {
		h, err := gen.NearAcyclicHypergraph(6, k)
		if err != nil {
			t.Fatal(err)
		}
		coll, _, err := gen.RandomConsistent(rng, h, 4, 3, 2)
		if err != nil {
			t.Fatal(err)
		}
		mono := decide(t, coll, core.GlobalOptions{ForceILP: true})
		auto := decide(t, coll, core.GlobalOptions{})
		if !mono.Consistent || !auto.Consistent {
			t.Fatalf("k=%d: generated-consistent instance judged inconsistent (ForceILP=%v Auto=%v)",
				k, mono.Consistent, auto.Consistent)
		}
		verifyWitness(t, coll, mono, "ForceILP")
		verifyWitness(t, coll, auto, "Auto")
		// k = 0 is acyclic: no core to search, Auto composes along a join
		// tree.
		want := core.MethodHybrid
		if k == 0 {
			want = core.MethodAcyclic
		}
		if auto.Method != want || mono.Method != core.MethodILP {
			t.Fatalf("k=%d methods: Auto %q (want %q), ForceILP %q", k, auto.Method, want, mono.Method)
		}
	}

	// Search-bound infeasible: 3DCT margins perturbed into pairwise
	// consistency without global consistency (fully cyclic, so the core
	// is the whole schema and Auto runs the monolith).
	inst, err := gen.InfeasibleThreeDCT(rng, 2, 3, 200, 200_000)
	if err != nil {
		t.Skipf("no infeasible instance at this seed: %v", err)
	}
	coll, err := inst.ToCollection()
	if err != nil {
		t.Fatal(err)
	}
	mono := decide(t, coll, core.GlobalOptions{ForceILP: true})
	auto := decide(t, coll, core.GlobalOptions{})
	if mono.Consistent || auto.Consistent {
		t.Fatalf("infeasible instance judged consistent (ForceILP=%v Auto=%v)", mono.Consistent, auto.Consistent)
	}
}
