package maxflow

import (
	"math"
	"math/rand"
	"testing"
)

// maxFlowEdmondsKarp computes a maximum integral flow with the
// Edmonds–Karp algorithm (BFS augmenting paths, O(VE²)). It shares
// nothing with Dinic's search but the residual graph, which makes it an
// independent cross-check and the ablation baseline below.
func (nw *Network) maxFlowEdmondsKarp() int64 {
	nw.Reset()
	var total int64
	parentEdge := make([]int32, nw.n)
	for {
		for i := range parentEdge {
			parentEdge[i] = -1
		}
		parentEdge[nw.source] = -2
		queue := []int32{int32(nw.source)}
		found := false
		for qi := 0; qi < len(queue) && !found; qi++ {
			u := queue[qi]
			for _, eid := range nw.head[u] {
				e := &nw.edges[eid]
				if e.cap > 0 && parentEdge[e.to] == -1 {
					parentEdge[e.to] = eid
					if int(e.to) == nw.sink {
						found = true
						break
					}
					queue = append(queue, e.to)
				}
			}
		}
		if !found {
			return total
		}
		bottleneck := int64(math.MaxInt64)
		for v := nw.sink; v != nw.source; {
			eid := parentEdge[v]
			if nw.edges[eid].cap < bottleneck {
				bottleneck = nw.edges[eid].cap
			}
			v = int(nw.edges[eid^1].to)
		}
		for v := nw.sink; v != nw.source; {
			eid := parentEdge[v]
			nw.edges[eid].cap -= bottleneck
			nw.edges[eid^1].cap += bottleneck
			v = int(nw.edges[eid^1].to)
		}
		total += bottleneck
	}
}

// BenchmarkAblationFlowAlgorithms compares Dinic against Edmonds–Karp on a
// bag-shaped bipartite network: source arcs to side, random middle arcs,
// sink arcs.
func BenchmarkAblationFlowAlgorithms(b *testing.B) {
	const side = 120
	n := 2*side + 2
	nw, err := NewNetwork(n, 0, n-1)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(10))
	for i := 0; i < side; i++ {
		if _, err := nw.AddEdge(0, 1+i, int64(1+rng.Intn(50))); err != nil {
			b.Fatal(err)
		}
		if _, err := nw.AddEdge(1+side+i, n-1, int64(1+rng.Intn(50))); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < side; i++ {
		for k := 0; k < 6; k++ {
			if _, err := nw.AddEdge(1+i, 1+side+rng.Intn(side), 1<<30); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("dinic", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			nw.MaxFlow()
		}
	})
	b.Run("edmonds-karp", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			nw.maxFlowEdmondsKarp()
		}
	})
}
