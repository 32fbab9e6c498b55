package maxflow

import (
	"math/rand"
	"testing"
)

func mustNetwork(t *testing.T, n, s, k int) *Network {
	t.Helper()
	nw, err := NewNetwork(n, s, k)
	if err != nil {
		t.Fatal(err)
	}
	return nw
}

func mustEdge(t *testing.T, nw *Network, from, to int, c int64) int {
	t.Helper()
	id, err := nw.AddEdge(from, to, c)
	if err != nil {
		t.Fatal(err)
	}
	return id
}

func TestNewNetworkValidation(t *testing.T) {
	if _, err := NewNetwork(1, 0, 0); err == nil {
		t.Error("expected error for n=1")
	}
	if _, err := NewNetwork(3, 0, 0); err == nil {
		t.Error("expected error for source == sink")
	}
	if _, err := NewNetwork(3, -1, 2); err == nil {
		t.Error("expected error for bad source")
	}
}

func TestAddEdgeValidation(t *testing.T) {
	nw := mustNetwork(t, 2, 0, 1)
	if _, err := nw.AddEdge(0, 5, 1); err == nil {
		t.Error("expected range error")
	}
	if _, err := nw.AddEdge(0, 1, -1); err == nil {
		t.Error("expected capacity error")
	}
}

func TestOverflowBoundIsCapacityOutOfSource(t *testing.T) {
	// Four arcs of 2^61 out of the source sum to 2^63: the flow value
	// could leave int64, so the fourth is refused.
	nw := mustNetwork(t, 6, 0, 5)
	for v := 1; v <= 3; v++ {
		mustEdge(t, nw, 0, v, 1<<61)
	}
	if _, err := nw.AddEdge(0, 4, 1<<61); err == nil {
		t.Fatal("capacity out of the source past int64 must be refused")
	}

	// Arcs elsewhere may sum past int64: only the source side bounds a
	// flow value. Two source arcs of 2^61 feed four parallel middle arcs
	// of 2^62 each (2^64 in total) and two sink arcs of 2^61.
	nw = mustNetwork(t, 4, 0, 3)
	mustEdge(t, nw, 0, 1, 1<<61)
	mustEdge(t, nw, 0, 1, 1<<61)
	for k := 0; k < 4; k++ {
		mustEdge(t, nw, 1, 2, 1<<62)
	}
	mustEdge(t, nw, 2, 3, 1<<61)
	mustEdge(t, nw, 2, 3, 1<<61)
	if got := nw.MaxFlow(); got != 1<<62 {
		t.Errorf("max flow = %d, want 2^62", got)
	}
}

func TestSingleEdge(t *testing.T) {
	nw := mustNetwork(t, 2, 0, 1)
	id := mustEdge(t, nw, 0, 1, 7)
	if got := nw.MaxFlow(); got != 7 {
		t.Errorf("max flow = %d, want 7", got)
	}
	if got := nw.Flow(id); got != 7 {
		t.Errorf("edge flow = %d, want 7", got)
	}
	if got := nw.Capacity(id); got != 7 {
		t.Errorf("capacity = %d, want 7", got)
	}
}

func TestClassicDiamond(t *testing.T) {
	// The standard 4-vertex diamond with a cross edge; max flow 2000+30... Use
	// CLRS-style example: s=0, t=3.
	nw := mustNetwork(t, 4, 0, 3)
	mustEdge(t, nw, 0, 1, 100)
	mustEdge(t, nw, 0, 2, 100)
	mustEdge(t, nw, 1, 3, 100)
	mustEdge(t, nw, 2, 3, 100)
	mustEdge(t, nw, 1, 2, 1)
	if got := nw.MaxFlow(); got != 200 {
		t.Errorf("max flow = %d, want 200", got)
	}
}

func TestBottleneck(t *testing.T) {
	// s -> a -> t with middle bottleneck 3.
	nw := mustNetwork(t, 3, 0, 2)
	mustEdge(t, nw, 0, 1, 10)
	mustEdge(t, nw, 1, 2, 3)
	if got := nw.MaxFlow(); got != 3 {
		t.Errorf("max flow = %d, want 3", got)
	}
}

func TestDisconnected(t *testing.T) {
	nw := mustNetwork(t, 4, 0, 3)
	mustEdge(t, nw, 0, 1, 5)
	mustEdge(t, nw, 2, 3, 5)
	if got := nw.MaxFlow(); got != 0 {
		t.Errorf("max flow = %d, want 0", got)
	}
}

func TestZeroCapacityEdge(t *testing.T) {
	nw := mustNetwork(t, 2, 0, 1)
	mustEdge(t, nw, 0, 1, 0)
	if got := nw.MaxFlow(); got != 0 {
		t.Errorf("max flow = %d, want 0", got)
	}
}

func TestFlowConservationAndCapacityRespect(t *testing.T) {
	// On a random network, the flow must respect capacities and conserve at
	// internal vertices; checked via the public edge API.
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 30; trial++ {
		n := 6
		nw := mustNetwork(t, n, 0, n-1)
		type rec struct{ id, from, to int }
		var recs []rec
		for i := 0; i < 14; i++ {
			from, to := rng.Intn(n), rng.Intn(n)
			if from == to {
				continue
			}
			id := mustEdge(t, nw, from, to, int64(rng.Intn(20)))
			recs = append(recs, rec{id, from, to})
		}
		val := nw.MaxFlow()
		net := make([]int64, n)
		for _, r := range recs {
			f := nw.Flow(r.id)
			if f < 0 || f > nw.Capacity(r.id) {
				t.Fatalf("edge %d->%d flow %d out of [0,%d]", r.from, r.to, f, nw.Capacity(r.id))
			}
			net[r.from] -= f
			net[r.to] += f
		}
		for v := 1; v < n-1; v++ {
			if net[v] != 0 {
				t.Fatalf("conservation violated at %d: %d", v, net[v])
			}
		}
		if net[n-1] != val || net[0] != -val {
			t.Fatalf("flow value mismatch: value=%d, into sink=%d, out of source=%d", val, net[n-1], -net[0])
		}
	}
}

func TestDinicMatchesEdmondsKarpProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 60; trial++ {
		n := 2 + rng.Intn(7)
		nw := mustNetwork(t, n, 0, n-1)
		m := rng.Intn(18)
		for i := 0; i < m; i++ {
			from, to := rng.Intn(n), rng.Intn(n)
			if from == to {
				continue
			}
			mustEdge(t, nw, from, to, int64(rng.Intn(50)))
		}
		d := nw.MaxFlow()
		ek := nw.maxFlowEdmondsKarp()
		if d != ek {
			t.Fatalf("trial %d: Dinic=%d, Edmonds-Karp=%d", trial, d, ek)
		}
	}
}

func TestBipartiteSaturation(t *testing.T) {
	// The bag-consistency network shape: source -> left (caps R), middle
	// edges with huge capacity, right -> sink (caps S). Saturated iff both
	// sides total equal and matching possible.
	// Left tuples with counts 2,3; right with 4,1; full middle connectivity.
	nw := mustNetwork(t, 6, 0, 5)
	mustEdge(t, nw, 0, 1, 2)
	mustEdge(t, nw, 0, 2, 3)
	for _, l := range []int{1, 2} {
		for _, r := range []int{3, 4} {
			mustEdge(t, nw, l, r, 1<<40)
		}
	}
	mustEdge(t, nw, 3, 5, 4)
	mustEdge(t, nw, 4, 5, 1)
	if got := nw.MaxFlow(); got != 5 {
		t.Errorf("max flow = %d, want 5 (saturated)", got)
	}
}

func TestParallelEdges(t *testing.T) {
	nw := mustNetwork(t, 2, 0, 1)
	mustEdge(t, nw, 0, 1, 3)
	mustEdge(t, nw, 0, 1, 4)
	if got := nw.MaxFlow(); got != 7 {
		t.Errorf("max flow with parallel edges = %d, want 7", got)
	}
}

func TestLargeCapacities(t *testing.T) {
	nw := mustNetwork(t, 3, 0, 2)
	mustEdge(t, nw, 0, 1, 1<<60)
	mustEdge(t, nw, 1, 2, 1<<59)
	if got := nw.MaxFlow(); got != 1<<59 {
		t.Errorf("max flow = %d, want 2^59", got)
	}
}

func TestRepeatedMaxFlowIsIdempotent(t *testing.T) {
	nw := mustNetwork(t, 3, 0, 2)
	mustEdge(t, nw, 0, 1, 5)
	mustEdge(t, nw, 1, 2, 4)
	first := nw.MaxFlow()
	second := nw.MaxFlow()
	if first != second {
		t.Errorf("MaxFlow not idempotent: %d then %d", first, second)
	}
}

func BenchmarkDinicGrid(b *testing.B) {
	// A 20x20 grid-ish network.
	const side = 20
	build := func() *Network {
		n := side*side + 2
		nw, _ := NewNetwork(n, 0, n-1)
		id := func(r, c int) int { return 1 + r*side + c }
		for c := 0; c < side; c++ {
			_, _ = nw.AddEdge(0, id(0, c), 10)
			_, _ = nw.AddEdge(id(side-1, c), n-1, 10)
		}
		for r := 0; r < side-1; r++ {
			for c := 0; c < side; c++ {
				_, _ = nw.AddEdge(id(r, c), id(r+1, c), 7)
				if c+1 < side {
					_, _ = nw.AddEdge(id(r, c), id(r, c+1), 3)
				}
			}
		}
		return nw
	}
	nw := build()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nw.MaxFlow()
	}
}
