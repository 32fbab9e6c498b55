package core

import (
	"errors"
	"math"

	"bagconsistency/internal/bag"
)

// This file keeps the network form of the minimal-witness loop as a test
// oracle for the block kernel (transport.go). It is the loop as it ran on
// the whole network N(R,S): one saturated Dinic flow kept alive across
// probes, every middle arc visited in join order, an idle arc dropped
// outright, a flowing arc deleted iff its units reroute through the
// residual graph, and one final Dinic flow on the surviving arcs from
// which the witness is read. The differential tests and
// FuzzMinimalPairWitness require the kernel's witness to match it byte
// for byte, row order included.

// oracleNet is a residual network with int64 capacities and no overflow
// bookkeeping, so pairs whose arc capacities sum past int64 still run.
type oracleNet struct {
	source, sink int
	head         [][]int32
	edges        []oracleEdge
	level        []int32
	iter         []int
}

type oracleEdge struct {
	to   int32
	cap  int64 // residual capacity
	orig int64 // original capacity
}

func newOracleNet(n, source, sink int) *oracleNet {
	return &oracleNet{source: source, sink: sink, head: make([][]int32, n), level: make([]int32, n), iter: make([]int, n)}
}

func (nw *oracleNet) addEdge(from, to int, capacity int64) int {
	id := len(nw.edges)
	nw.edges = append(nw.edges, oracleEdge{to: int32(to), cap: capacity, orig: capacity}, oracleEdge{to: int32(from)})
	nw.head[from] = append(nw.head[from], int32(id))
	nw.head[to] = append(nw.head[to], int32(id+1))
	return id
}

func (nw *oracleNet) flow(id int) int64 { return nw.edges[id].orig - nw.edges[id].cap }

func (nw *oracleNet) maxFlow() int64 {
	for i := range nw.edges {
		nw.edges[i].cap = nw.edges[i].orig
	}
	return nw.augment(nw.source, nw.sink, math.MaxInt64)
}

// augment runs Dinic phases pushing at most limit more units from src to
// dst on the current residual graph.
func (nw *oracleNet) augment(src, dst int, limit int64) int64 {
	var total int64
	for total < limit && nw.bfs(src, dst) {
		for i := range nw.iter {
			nw.iter[i] = 0
		}
		for total < limit {
			pushed := nw.dfs(src, dst, limit-total)
			if pushed == 0 {
				break
			}
			total += pushed
		}
	}
	return total
}

func (nw *oracleNet) bfs(src, dst int) bool {
	for i := range nw.level {
		nw.level[i] = -1
	}
	nw.level[src] = 0
	q := []int32{int32(src)}
	for qi := 0; qi < len(q); qi++ {
		u := q[qi]
		for _, eid := range nw.head[u] {
			e := &nw.edges[eid]
			if e.cap > 0 && nw.level[e.to] < 0 {
				nw.level[e.to] = nw.level[u] + 1
				q = append(q, e.to)
			}
		}
	}
	return nw.level[dst] >= 0
}

func (nw *oracleNet) dfs(u, dst int, limit int64) int64 {
	if u == dst {
		return limit
	}
	for ; nw.iter[u] < len(nw.head[u]); nw.iter[u]++ {
		eid := nw.head[u][nw.iter[u]]
		e := &nw.edges[eid]
		if e.cap <= 0 || nw.level[e.to] != nw.level[u]+1 {
			continue
		}
		pushed := nw.dfs(int(e.to), dst, min(limit, e.cap))
		if pushed > 0 {
			e.cap -= pushed
			nw.edges[eid^1].cap += pushed
			return pushed
		}
	}
	return 0
}

// dropIdle deletes an arc that carries no flow; the flow stays valid.
func (nw *oracleNet) dropIdle(id int) {
	nw.edges[id].orig, nw.edges[id].cap = 0, 0
}

// tryReroute deletes arc id iff its f units reroute from its tail to its
// head through the residual graph; otherwise it restores the arc with the
// unrerouted remainder and reports false.
func (nw *oracleNet) tryReroute(id int) bool {
	e := &nw.edges[id]
	f := e.orig - e.cap
	u, v := int(nw.edges[id^1].to), int(e.to)
	origCap := e.orig
	e.orig, e.cap = 0, 0
	nw.edges[id^1].cap -= f
	g := nw.augment(u, v, f)
	if g == f {
		return true
	}
	rem := f - g
	e.orig = origCap
	e.cap = origCap - rem
	nw.edges[id^1].cap += rem
	return false
}

// oracleMinimalPairWitness is the network probe loop. It returns
// (nil, false) for an inconsistent pair.
func oracleMinimalPairWitness(r, s *bag.Bag) (*bag.Bag, bool, error) {
	ok, err := PairConsistent(r, s)
	if err != nil || !ok {
		return nil, false, err
	}
	rv, sv := r.View(), s.View()
	nR, nS := rv.Rows.N(), sv.Rows.N()
	nw := newOracleNet(2+nR+nS, 0, 1+nR+nS)
	var want int64
	for i := 0; i < nR; i++ {
		nw.addEdge(0, 1+i, rv.Rows.Counts[i])
		want += rv.Rows.Counts[i]
	}
	for j := 0; j < nS; j++ {
		nw.addEdge(1+nR+j, 1+nR+nS, sv.Rows.Counts[j])
	}
	var middle []int
	var pairR, pairS []int
	err = bag.EachJoinPair(r, s, func(rpos, spos int) error {
		middle = append(middle, nw.addEdge(1+rpos, 1+nR+spos, min(rv.Rows.Counts[rpos], sv.Rows.Counts[spos])))
		pairR = append(pairR, rpos)
		pairS = append(pairS, spos)
		return nil
	})
	if err != nil {
		return nil, false, err
	}
	if nw.maxFlow() != want {
		return nil, false, errOracleUnsaturated
	}
	for _, id := range middle {
		if nw.flow(id) == 0 {
			nw.dropIdle(id)
			continue
		}
		nw.tryReroute(id)
	}
	if nw.maxFlow() != want {
		return nil, false, errOracleUnsaturated
	}
	wb := newWitnessBuilder(r, s, rv, sv, 0)
	defer wb.release()
	for i, id := range middle {
		if f := nw.flow(id); f > 0 {
			wb.add(pairR[i], pairS[i], f)
		}
	}
	w, err := wb.bag()
	return w, err == nil, err
}

var errOracleUnsaturated = errors.New("oracle: network lost saturation")
