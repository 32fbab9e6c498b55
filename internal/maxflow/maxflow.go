// Package maxflow implements integer-capacity maximum flow, the
// computational workhorse behind the two-bag consistency results of the
// paper (Lemma 2, Corollaries 1 and 4): the network N(R,S) associated with
// two bags admits a saturated flow iff the bags are consistent, and an
// integral max flow yields a witnessing bag.
//
// The algorithm is Dinic's (strongly polynomial, O(V²E)). It returns
// integral flows, which is what makes the integrality theorem for max
// flow available to the bag construction. An Edmonds–Karp
// implementation lives in this package's tests as an independent oracle
// and ablation baseline.
package maxflow

import (
	"fmt"
	"math"
)

// Network is a directed flow network with int64 capacities and a designated
// source and sink. Parallel edges and self-loops are permitted (self-loops
// never carry useful flow).
type Network struct {
	n      int
	source int
	sink   int
	head   [][]int32 // adjacency lists of edge indices
	edges  []edge
	// out sums the capacities leaving the source: the largest value a
	// flow can reach, so keeping it within int64 is the overflow bound.
	out int64

	// Reusable search scratch: allocated once per network, so repeated
	// flow computations allocate nothing.
	level []int32
	iter  []int
	queue []int32
}

type edge struct {
	to   int32
	cap  int64 // residual capacity
	orig int64 // original capacity
}

// NewNetwork creates a network with n vertices numbered 0..n-1.
func NewNetwork(n, source, sink int) (*Network, error) {
	if n < 2 {
		return nil, fmt.Errorf("maxflow: need at least 2 vertices, got %d", n)
	}
	if source < 0 || source >= n || sink < 0 || sink >= n || source == sink {
		return nil, fmt.Errorf("maxflow: bad source/sink %d/%d for n=%d", source, sink, n)
	}
	return &Network{n: n, source: source, sink: sink, head: make([][]int32, n)}, nil
}

// NumVertices returns the number of vertices.
func (nw *Network) NumVertices() int { return nw.n }

// ReserveEdges pre-sizes the edge store for m AddEdge calls, avoiding
// append growth during bulk network construction.
func (nw *Network) ReserveEdges(m int) {
	if need := len(nw.edges) + 2*m; cap(nw.edges) < need {
		grown := make([]edge, len(nw.edges), need)
		copy(grown, nw.edges)
		nw.edges = grown
	}
}

// AddEdge adds a directed edge with the given capacity and returns its
// identifier for later flow inspection. Capacities must be non-negative,
// and the capacities leaving the source must sum within int64: that sum
// bounds every flow value, so no other arc can make one overflow.
func (nw *Network) AddEdge(from, to int, capacity int64) (int, error) {
	if from < 0 || from >= nw.n || to < 0 || to >= nw.n {
		return 0, fmt.Errorf("maxflow: edge %d->%d out of range", from, to)
	}
	if capacity < 0 {
		return 0, fmt.Errorf("maxflow: negative capacity %d", capacity)
	}
	if from == nw.source {
		if nw.out > math.MaxInt64-capacity {
			return 0, fmt.Errorf("maxflow: capacity out of the source overflows int64")
		}
		nw.out += capacity
	}
	id := len(nw.edges)
	nw.edges = append(nw.edges, edge{to: int32(to), cap: capacity, orig: capacity})
	nw.edges = append(nw.edges, edge{to: int32(from), cap: 0, orig: 0})
	nw.head[from] = append(nw.head[from], int32(id))
	nw.head[to] = append(nw.head[to], int32(id+1))
	return id, nil
}

// Flow returns the flow currently carried by the edge with the given id
// (after a MaxFlow* call).
func (nw *Network) Flow(id int) int64 {
	return nw.edges[id].orig - nw.edges[id].cap
}

// Capacity returns the original capacity of the edge with the given id.
func (nw *Network) Capacity(id int) int64 { return nw.edges[id].orig }

// Reset clears all flow, restoring residual capacities to the originals.
func (nw *Network) Reset() {
	for i := range nw.edges {
		nw.edges[i].cap = nw.edges[i].orig
	}
}

// MaxFlow computes a maximum integral flow from source to sink with Dinic's
// algorithm and returns its value. The flow on individual edges is
// available through Flow afterwards.
func (nw *Network) MaxFlow() int64 {
	nw.Reset()
	nw.ensureScratch()
	var total int64
	for nw.bfsLevels() {
		for i := range nw.iter {
			nw.iter[i] = 0
		}
		for {
			pushed := nw.blockingDFS(nw.source, math.MaxInt64)
			if pushed == 0 {
				break
			}
			total += pushed
		}
	}
	return total
}

func (nw *Network) ensureScratch() {
	if cap(nw.level) < nw.n {
		nw.level = make([]int32, nw.n)
		nw.iter = make([]int, nw.n)
		nw.queue = make([]int32, 0, nw.n)
	}
	nw.level = nw.level[:nw.n]
	nw.iter = nw.iter[:nw.n]
}

// bfsLevels builds the level graph from the source; reports whether the
// sink is reachable.
func (nw *Network) bfsLevels() bool {
	level := nw.level
	for i := range level {
		level[i] = -1
	}
	q := nw.queue[:0]
	level[nw.source] = 0
	q = append(q, int32(nw.source))
	for qi := 0; qi < len(q); qi++ {
		u := q[qi]
		for _, eid := range nw.head[u] {
			e := &nw.edges[eid]
			if e.cap > 0 && level[e.to] < 0 {
				level[e.to] = level[u] + 1
				q = append(q, e.to)
			}
		}
	}
	nw.queue = q
	return level[nw.sink] >= 0
}

// blockingDFS pushes flow along the level graph with the standard
// current-arc optimization.
func (nw *Network) blockingDFS(u int, limit int64) int64 {
	if u == nw.sink {
		return limit
	}
	iter, level := nw.iter, nw.level
	for ; iter[u] < len(nw.head[u]); iter[u]++ {
		eid := nw.head[u][iter[u]]
		e := &nw.edges[eid]
		if e.cap <= 0 || level[e.to] != level[u]+1 {
			continue
		}
		pass := limit
		if e.cap < pass {
			pass = e.cap
		}
		pushed := nw.blockingDFS(int(e.to), pass)
		if pushed > 0 {
			e.cap -= pushed
			nw.edges[eid^1].cap += pushed
			return pushed
		}
	}
	return 0
}
