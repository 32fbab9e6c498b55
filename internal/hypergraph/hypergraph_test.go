package hypergraph

import (
	"math/rand"
	"reflect"
	"testing"
)

func TestNewDedupesAndSorts(t *testing.T) {
	h, err := New([][]string{{"B", "A", "B"}, {"C"}})
	if err != nil {
		t.Fatal(err)
	}
	if got := h.Vertices(); len(got) != 3 || got[0] != "A" || got[1] != "B" || got[2] != "C" {
		t.Errorf("vertices = %v", got)
	}
	if e := h.Edge(0); len(e) != 2 || e[0] != "A" || e[1] != "B" {
		t.Errorf("edge 0 = %v", e)
	}
}

func TestNewRejectsEmptyVertexName(t *testing.T) {
	if _, err := New([][]string{{""}}); err == nil {
		t.Error("expected error for empty vertex name")
	}
}

func TestNewWithVerticesKeepsIsolated(t *testing.T) {
	h, err := NewWithVertices([]string{"Z"}, [][]string{{"A"}})
	if err != nil {
		t.Fatal(err)
	}
	if h.NumVertices() != 2 || !h.HasVertex("Z") {
		t.Errorf("isolated vertex lost: %v", h)
	}
}

func TestSetHelpers(t *testing.T) {
	if !subset([]string{"A", "C"}, []string{"A", "B", "C"}) {
		t.Error("subset failed")
	}
	if subset([]string{"A", "D"}, []string{"A", "B", "C"}) {
		t.Error("subset false positive")
	}
	if got := intersect([]string{"A", "B", "C"}, []string{"B", "C", "D"}); len(got) != 2 || got[0] != "B" {
		t.Errorf("intersect = %v", got)
	}
	if got := union([]string{"A", "C"}, []string{"B", "C"}); len(got) != 3 {
		t.Errorf("union = %v", got)
	}
	if got := remove([]string{"A", "B", "C"}, "B"); len(got) != 2 || got[1] != "C" {
		t.Errorf("remove = %v", got)
	}
}

func TestReduce(t *testing.T) {
	h := Must([]string{"A", "B", "C"}, []string{"A", "B"}, []string{"A", "B"}, []string{"C", "D"})
	r := h.Reduce()
	if r.NumEdges() != 2 {
		t.Errorf("reduced edges = %v", r.Edges())
	}
	if !r.IsReduced() {
		t.Error("reduction should be reduced")
	}
	if h.IsReduced() {
		t.Error("h has covered edges; should not be reduced")
	}
}

func TestInduced(t *testing.T) {
	h := Must([]string{"A", "B", "C"}, []string{"C", "D"})
	g := h.Induced([]string{"A", "B", "D"})
	if g.NumVertices() != 3 {
		t.Errorf("induced vertices = %v", g.Vertices())
	}
	// Edges: {A,B}, {D}.
	if g.NumEdges() != 2 {
		t.Errorf("induced edges = %v", g.Edges())
	}
	// Inducing on a set disjoint from all edges drops all edges.
	if got := h.Induced(nil).NumEdges(); got != 0 {
		t.Errorf("induced on empty set has %d edges", got)
	}
}

func TestFamiliesClassification(t *testing.T) {
	tests := []struct {
		name                        string
		h                           *Hypergraph
		acyclic, chordal, conformal bool
	}{
		{"P2", Path(2), true, true, true},
		{"P5", Path(5), true, true, true},
		{"C3", Cycle(3), false, true, false},
		{"C4", Cycle(4), false, false, true},
		{"C5", Cycle(5), false, false, true},
		{"C6", Cycle(6), false, false, true},
		{"H3", AllButOne(3), false, true, false},
		{"H4", AllButOne(4), false, true, false},
		{"H5", AllButOne(5), false, true, false},
		{"Star8", Star(8), true, true, true},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.h.IsAcyclic(); got != tc.acyclic {
				t.Errorf("IsAcyclic = %v, want %v", got, tc.acyclic)
			}
			if got := tc.h.IsChordal(); got != tc.chordal {
				t.Errorf("IsChordal = %v, want %v", got, tc.chordal)
			}
			if got := tc.h.IsConformal(); got != tc.conformal {
				t.Errorf("IsConformal = %v, want %v", got, tc.conformal)
			}
			// Theorem 1 equivalences.
			if got := tc.h.HasJoinTree(); got != tc.acyclic {
				t.Errorf("HasJoinTree = %v, want %v", got, tc.acyclic)
			}
			if got := tc.h.HasRunningIntersectionProperty(); got != tc.acyclic {
				t.Errorf("HasRIP = %v, want %v", got, tc.acyclic)
			}
		})
	}
}

func TestH3EqualsC3(t *testing.T) {
	if !AllButOne(3).Reduce().Equal(Cycle(3).Reduce()) {
		t.Error("H3 should equal C3")
	}
}

func TestUniformityRegularity(t *testing.T) {
	c4 := Cycle(4)
	if k, ok := c4.Uniformity(); !ok || k != 2 {
		t.Errorf("C4 uniformity = %d, %v", k, ok)
	}
	if d, ok := c4.Regularity(); !ok || d != 2 {
		t.Errorf("C4 regularity = %d, %v", d, ok)
	}
	h5 := AllButOne(5)
	if k, ok := h5.Uniformity(); !ok || k != 4 {
		t.Errorf("H5 uniformity = %d, %v", k, ok)
	}
	if d, ok := h5.Regularity(); !ok || d != 4 {
		t.Errorf("H5 regularity = %d, %v", d, ok)
	}
	mixed := Must([]string{"A", "B"}, []string{"A", "B", "C"})
	if _, ok := mixed.Uniformity(); ok {
		t.Error("mixed edge sizes should not be uniform")
	}
	if _, ok := mixed.Regularity(); ok {
		t.Error("mixed degrees should not be regular")
	}
}

// randomHypergraph generates small random hypergraphs for the Theorem 1
// equivalence property test.
func randomHypergraph(rng *rand.Rand) *Hypergraph {
	nv := 2 + rng.Intn(5) // 2..6 vertices
	ne := 1 + rng.Intn(5) // 1..5 edges
	names := []string{"A", "B", "C", "D", "E", "F"}[:nv]
	edges := make([][]string, 0, ne)
	for i := 0; i < ne; i++ {
		size := 1 + rng.Intn(3)
		if size > nv {
			size = nv
		}
		var e []string
		perm := rng.Perm(nv)
		for _, p := range perm[:size] {
			e = append(e, names[p])
		}
		edges = append(edges, e)
	}
	h, err := New(edges)
	if err != nil {
		panic(err)
	}
	return h
}

func TestTheorem1EquivalencesOnRandomHypergraphs(t *testing.T) {
	// Structural part of Theorem 1/2: acyclic ⇔ conformal ∧ chordal ⇔ RIP ⇔
	// join tree, checked on 300 random small hypergraphs with four
	// independently implemented algorithms.
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 300; i++ {
		h := randomHypergraph(rng)
		a := h.IsAcyclic()
		b := h.IsChordal() && h.IsConformal()
		c := h.HasJoinTree()
		d := h.HasRunningIntersectionProperty()
		if a != b || a != c || a != d {
			t.Fatalf("equivalences diverge on %v: GYO=%v conf∧chord=%v jointree=%v rip=%v", h, a, b, c, d)
		}
	}
}

func TestConformalMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for i := 0; i < 300; i++ {
		h := randomHypergraph(rng)
		if got, want := h.IsConformal(), h.IsConformalBruteForce(); got != want {
			t.Fatalf("Gilmore test %v, brute force %v on %v", got, want, h)
		}
	}
}

func TestMaximalCliques(t *testing.T) {
	// Triangle A-B-C plus pendant D attached to C.
	adj := map[string]map[string]bool{
		"A": {"B": true, "C": true},
		"B": {"A": true, "C": true},
		"C": {"A": true, "B": true, "D": true},
		"D": {"C": true},
	}
	cliques := MaximalCliques([]string{"A", "B", "C", "D"}, adj)
	if len(cliques) != 2 {
		t.Fatalf("cliques = %v", cliques)
	}
	if edgeKey(cliques[0]) != edgeKey([]string{"A", "B", "C"}) {
		t.Errorf("first clique = %v", cliques[0])
	}
	if edgeKey(cliques[1]) != edgeKey([]string{"C", "D"}) {
		t.Errorf("second clique = %v", cliques[1])
	}
}

func TestChordlessCycle(t *testing.T) {
	c5 := Cycle(5)
	cyc := c5.ChordlessCycle()
	if len(cyc) != 5 {
		t.Fatalf("chordless cycle in C5 = %v", cyc)
	}
	if Path(4).ChordlessCycle() != nil {
		t.Error("P4 should have no chordless cycle")
	}
}

func TestJoinTreeOnPath(t *testing.T) {
	p5 := Path(5)
	jt, err := BuildJoinTree(p5)
	if err != nil {
		t.Fatal(err)
	}
	if len(jt.TreeEdges()) != p5.NumEdges()-1 {
		t.Errorf("tree has %d edges, want %d", len(jt.TreeEdges()), p5.NumEdges()-1)
	}
	order, parent, err := jt.RootedOrder(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != p5.NumEdges() || parent[0] != -1 {
		t.Errorf("order = %v, parent = %v", order, parent)
	}
	if err := VerifyRunningIntersection(p5, order); err != nil {
		t.Errorf("BFS order of join tree should satisfy RIP: %v", err)
	}
}

func TestJoinTreeFailsOnCycle(t *testing.T) {
	if _, err := BuildJoinTree(Cycle(4)); err == nil {
		t.Error("expected join tree failure on C4")
	}
}

func TestJoinTreeDisconnected(t *testing.T) {
	h := Must([]string{"A", "B"}, []string{"C", "D"})
	if !h.HasJoinTree() {
		t.Error("disconnected acyclic hypergraph should have a join tree")
	}
	order, err := h.RunningIntersectionOrder()
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyRunningIntersection(h, order); err != nil {
		t.Error(err)
	}
}

func TestVerifyRunningIntersectionRejectsBadOrder(t *testing.T) {
	// For the "hinge" hypergraph {A,B},{B,C},{C,D}, the order 0,2,1 violates
	// RIP at position 1: {C,D} ∩ {A,B} = ∅ ⊆ anything, so that's fine —
	// instead use an order where the violation is real.
	h := Must([]string{"A", "B"}, []string{"B", "C"}, []string{"C", "D"}, []string{"D", "E"})
	// Order {A,B}, {D,E}, {B,C,...}? Take indices {0, 3, 2, 1}:
	// position 2 edge {C,D}: intersection with {A,B,D,E} = {D} ⊆ {D,E}: ok.
	// position 3 edge {B,C}: intersection {B,C} with union = {B,C}, not a
	// subset of any single earlier edge.
	if err := VerifyRunningIntersection(h, []int{0, 3, 2, 1}); err == nil {
		t.Error("expected RIP violation")
	}
	if err := VerifyRunningIntersection(h, []int{0, 1, 2, 3}); err != nil {
		t.Errorf("natural path order should satisfy RIP: %v", err)
	}
	if err := VerifyRunningIntersection(h, []int{0}); err == nil {
		t.Error("expected length mismatch error")
	}
}

func TestDeleteVertex(t *testing.T) {
	h := Must([]string{"A", "B"}, []string{"B", "C"})
	g, err := h.DeleteVertex("B")
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 2 {
		t.Errorf("edge list length should be preserved: %v", g.Edges())
	}
	if len(g.Edge(0)) != 1 || g.Edge(0)[0] != "A" {
		t.Errorf("edge 0 after deletion = %v", g.Edge(0))
	}
	if g.HasVertex("B") {
		t.Error("B should be gone")
	}
	if _, err := h.DeleteVertex("Z"); err == nil {
		t.Error("expected error deleting unknown vertex")
	}
}

func TestDeleteCoveredEdge(t *testing.T) {
	h := Must([]string{"A"}, []string{"A", "B"})
	g, err := h.DeleteCoveredEdge(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 1 || len(g.Edge(0)) != 2 {
		t.Errorf("after deletion: %v", g.Edges())
	}
	if _, err := h.DeleteCoveredEdge(1, 0); err == nil {
		t.Error("expected error: {A,B} is not covered by {A}")
	}
	if _, err := h.DeleteCoveredEdge(0, 0); err == nil {
		t.Error("expected error: self-cover")
	}
	if _, err := h.DeleteCoveredEdge(5, 0); err == nil {
		t.Error("expected range error")
	}
}

func TestApplySequenceSnapshots(t *testing.T) {
	h := Must([]string{"A", "B"}, []string{"B", "C"})
	seq := []Deletion{
		{Kind: VertexDeletion, Vertex: "A"},
		{Kind: CoveredEdgeDeletion, EdgeIndex: 0, CoverIndex: 1},
	}
	snaps, err := h.ApplySequence(seq)
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) != 3 {
		t.Fatalf("want 3 snapshots, got %d", len(snaps))
	}
	if snaps[2].NumEdges() != 1 {
		t.Errorf("final = %v", snaps[2])
	}
	// Bad sequence surfaces a step error.
	bad := []Deletion{{Kind: CoveredEdgeDeletion, EdgeIndex: 0, CoverIndex: 1}}
	if _, err := h.ApplySequence(bad); err == nil {
		t.Error("expected step error: {A,B} not covered by {B,C}")
	}
}

func TestDeletionString(t *testing.T) {
	if got := (Deletion{Kind: VertexDeletion, Vertex: "A"}).String(); got != "delete vertex A" {
		t.Errorf("String = %q", got)
	}
	if got := (Deletion{Kind: CoveredEdgeDeletion, EdgeIndex: 1, CoverIndex: 2}).String(); got == "" {
		t.Error("empty String for edge deletion")
	}
}

func TestNonChordalCoreOnCycle(t *testing.T) {
	// C5 is already minimal: the core must be all of C5.
	core, err := Cycle(5).NonChordalCore()
	if err != nil {
		t.Fatal(err)
	}
	if len(core.W) != 5 || len(core.CycleOrder) != 5 {
		t.Errorf("core W = %v, cycle = %v", core.W, core.CycleOrder)
	}
	if !core.Result.isCycleShape() {
		t.Errorf("core result = %v", core.Result)
	}
}

func TestNonChordalCoreFindsEmbeddedCycle(t *testing.T) {
	// C4 with an extra pendant edge and a covered edge: core should be the C4.
	h := Must(
		[]string{"A", "B"}, []string{"B", "C"}, []string{"C", "D"}, []string{"D", "A"},
		[]string{"A", "E"}, []string{"B"},
	)
	core, err := h.NonChordalCore()
	if err != nil {
		t.Fatal(err)
	}
	if len(core.W) != 4 {
		t.Errorf("core W = %v, want the 4-cycle", core.W)
	}
	// Replaying the sequence from h must reach core.Result.
	snaps, err := h.ApplySequence(core.Sequence)
	if err != nil {
		t.Fatal(err)
	}
	if !snaps[len(snaps)-1].Equal(core.Result) {
		t.Error("sequence does not reproduce the core")
	}
}

func TestNonChordalCoreErrorsOnChordal(t *testing.T) {
	if _, err := Path(4).NonChordalCore(); err == nil {
		t.Error("expected error on chordal hypergraph")
	}
}

func TestNonConformalCoreOnH4(t *testing.T) {
	core, err := AllButOne(4).NonConformalCore()
	if err != nil {
		t.Fatal(err)
	}
	if len(core.W) != 4 {
		t.Errorf("core W = %v", core.W)
	}
	if !core.Result.isAllButOneShape() {
		t.Errorf("core result = %v", core.Result)
	}
}

func TestNonConformalCoreOnTriangle(t *testing.T) {
	// C3 = H3 is the minimal non-conformal hypergraph.
	core, err := Triangle().NonConformalCore()
	if err != nil {
		t.Fatal(err)
	}
	if len(core.W) != 3 {
		t.Errorf("core W = %v", core.W)
	}
}

func TestNonConformalCoreErrorsOnConformal(t *testing.T) {
	if _, err := Cycle(4).NonConformalCore(); err == nil {
		t.Error("C4 is conformal; expected error")
	}
}

func TestEveryCyclicHypergraphHasACore(t *testing.T) {
	// Lemma 3: every cyclic hypergraph is non-chordal or non-conformal and
	// yields a C_n or H_n core with a valid safe-deletion sequence.
	rng := rand.New(rand.NewSource(77))
	found := 0
	for i := 0; i < 400 && found < 60; i++ {
		h := randomHypergraph(rng)
		if h.IsAcyclic() {
			continue
		}
		found++
		var core *Core
		var err error
		if !h.IsChordal() {
			core, err = h.NonChordalCore()
		} else {
			core, err = h.NonConformalCore()
		}
		if err != nil {
			t.Fatalf("no core for cyclic %v: %v", h, err)
		}
		snaps, err := h.ApplySequence(core.Sequence)
		if err != nil {
			t.Fatalf("sequence replay failed on %v: %v", h, err)
		}
		if !snaps[len(snaps)-1].Equal(core.Result) {
			t.Fatalf("sequence result mismatch on %v", h)
		}
	}
	if found == 0 {
		t.Fatal("random generator produced no cyclic hypergraphs")
	}
}

func TestFamilyPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"Path(1)":      func() { Path(1) },
		"Cycle(2)":     func() { Cycle(2) },
		"AllButOne(2)": func() { AllButOne(2) },
		"Star(0)":      func() { Star(0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s should panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestStringRendering(t *testing.T) {
	h := Must([]string{"B", "A"})
	if got := h.String(); got != "(V={A,B}, E={{A,B}})" {
		t.Errorf("String = %q", got)
	}
}

func TestEqualSemantics(t *testing.T) {
	a := Must([]string{"A", "B"}, []string{"B", "C"})
	b := Must([]string{"B", "C"}, []string{"A", "B"})
	if !a.Equal(b) {
		t.Error("edge order should not matter")
	}
	c := Must([]string{"A", "B"})
	if a.Equal(c) {
		t.Error("different hypergraphs reported equal")
	}
	d, _ := NewWithVertices([]string{"Z"}, [][]string{{"A", "B"}, {"B", "C"}})
	if a.Equal(d) {
		t.Error("different vertex sets reported equal")
	}
}

func TestGYOTraceMatchesIsAcyclic(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	for i := 0; i < 200; i++ {
		h := randomHypergraph(rng)
		_, acyclic := h.GYOTrace()
		if acyclic != h.IsAcyclic() {
			t.Fatalf("GYOTrace disagrees with IsAcyclic on %v", h)
		}
	}
}

func TestGYOTraceOnPathIsComplete(t *testing.T) {
	steps, acyclic := Path(3).GYOTrace()
	if !acyclic {
		t.Fatal("P3 is acyclic")
	}
	if len(steps) == 0 {
		t.Fatal("expected a non-empty trace")
	}
	ears, covers := 0, 0
	for _, s := range steps {
		switch s.Kind {
		case GYOEarVertex:
			ears++
			if s.Vertex == "" {
				t.Error("ear step without vertex")
			}
		case GYOCoveredEdge:
			covers++
		}
		if s.String() == "" {
			t.Error("empty step description")
		}
	}
	// P3 = {A,B},{B,C}: A and C are ears; then {B} ⊆ {B,C} (or symmetric)
	// is covered; then B becomes an ear of the survivor.
	if ears == 0 || covers == 0 {
		t.Errorf("trace has %d ears and %d covers", ears, covers)
	}
}

func TestGYOTraceOnTriangleStalls(t *testing.T) {
	steps, acyclic := Triangle().GYOTrace()
	if acyclic {
		t.Fatal("C3 is cyclic")
	}
	if len(steps) != 0 {
		t.Errorf("the triangle admits no GYO step, trace = %v", steps)
	}
}

// TestGYOTracePinnedSteps pins the exact reduction on a schema whose ear
// and covered-edge steps interleave over six rounds: a triangle core with
// a fringe path, a nested edge and a pendant hanging off it. The trace is
// what `schemacheck -trace` prints, and the elimination order is what the
// decomposition hybrid replays, so both must stay step for step.
func TestGYOTracePinnedSteps(t *testing.T) {
	h := Must(
		[]string{"A", "B"}, []string{"B", "C", "D"}, []string{"C", "D"}, []string{"D", "E"}, []string{"E", "F"},
		[]string{"X", "Y"}, []string{"Y", "Z"}, []string{"X", "Z"}, []string{"Z", "A"},
	)
	steps, acyclic := h.GYOTrace()
	if acyclic {
		t.Fatal("triangle core must keep the schema cyclic")
	}
	want := []string{
		"remove ear vertex F",
		"remove covered edge {C,D}",
		"remove covered edge {E}",
		"remove ear vertex C",
		"remove ear vertex E",
		"remove covered edge {D}",
		"remove ear vertex D",
		"remove covered edge {B}",
		"remove ear vertex B",
		"remove covered edge {A}",
		"remove ear vertex A",
		"remove covered edge {Z}",
	}
	got := make([]string, len(steps))
	for i, s := range steps {
		got[i] = s.String()
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("trace drifted:\ngot  %q\nwant %q", got, want)
	}
	elim, core := h.CoreDecomposition()
	wantElim := []Elimination{{2, 1}, {4, 3}, {3, 1}, {1, 0}, {0, 8}, {8, 6}}
	if !reflect.DeepEqual(elim, wantElim) || !reflect.DeepEqual(core, []int{5, 6, 7}) {
		t.Fatalf("decomposition drifted: elim %v core %v", elim, core)
	}
}
