package hypergraph

// Elimination records one covered-edge removal of the GYO reduction, by
// original edge index: Edge was removed because — after ear-vertex
// shrinking — it was contained in the then-alive edge Cover. Replayed in
// reverse, the sequence reattaches the acyclic fringe to the cyclic core
// one edge at a time, with every reattached edge intersecting the
// already-solved part only inside its cover (the running-intersection
// property restricted to the fringe).
type Elimination struct {
	Edge  int
	Cover int
}

// CoreDecomposition runs the GYO reduction while tracking original edge
// indices. It returns the elimination order of the acyclic fringe and the
// original indices of the edges surviving the reduction — the cyclic core.
// The hypergraph is acyclic exactly when the core has at most one edge
// (IsAcyclic), in which case the whole edge set is fringe.
//
// The invariant that makes the fringe polynomial: when edge e is
// eliminated, every vertex e shares with any other edge alive at that
// moment is a vertex of its cover. (A shared vertex never ear-shrinks away
// from e while the other edge is alive, so it is still in e's shrunk form,
// hence in the cover.) Eliminations are therefore safe to undo by pairwise
// composition against the cover's bag alone.
func (h *Hypergraph) CoreDecomposition() ([]Elimination, []int) {
	return h.gyo(nil)
}

// gyo is the one GYO (Graham / Yu–Özsoyoğlu) reduction behind
// CoreDecomposition, IsAcyclic and GYOTrace. Each round deletes every ear
// vertex (one occurring in exactly one edge), then every edge contained in
// another alive edge, one at a time so the sequence is replayable; equal
// edges remove the higher list position. The reduction stops at the first
// round that changes nothing. When steps is non-nil every deletion is
// appended to it in the order it happened.
func (h *Hypergraph) gyo(steps *[]GYOStep) ([]Elimination, []int) {
	type live struct {
		orig  int
		verts []string
	}
	alive := make([]live, 0, len(h.edges))
	for i, e := range h.edges {
		cp := make([]string, len(e))
		copy(cp, e)
		alive = append(alive, live{orig: i, verts: cp})
	}
	var elim []Elimination
	for {
		changed := false

		// Ear vertices: drop vertices occurring in exactly one edge.
		occ := make(map[string]int)
		for _, e := range alive {
			for _, v := range e.verts {
				occ[v]++
			}
		}
		for i, e := range alive {
			var kept []string
			for _, v := range e.verts {
				if occ[v] == 1 {
					if steps != nil {
						*steps = append(*steps, GYOStep{Kind: GYOEarVertex, Vertex: v})
					}
					changed = true
					continue
				}
				kept = append(kept, v)
			}
			alive[i].verts = kept
		}

		// Covered edges, one at a time.
		for i := 0; i < len(alive); i++ {
			cover := -1
			for j := 0; j < len(alive); j++ {
				if i == j {
					continue
				}
				if subset(alive[i].verts, alive[j].verts) &&
					(len(alive[i].verts) < len(alive[j].verts) || i > j) {
					cover = j
					break
				}
			}
			if cover >= 0 {
				if steps != nil {
					// Shrunk edges are rebuilt each round, never written in
					// place, so the step can keep the removed one.
					*steps = append(*steps, GYOStep{Kind: GYOCoveredEdge, Edge: alive[i].verts})
				}
				elim = append(elim, Elimination{Edge: alive[i].orig, Cover: alive[cover].orig})
				alive = append(alive[:i], alive[i+1:]...)
				changed = true
				i--
			}
		}

		if !changed {
			core := make([]int, 0, len(alive))
			for _, e := range alive {
				core = append(core, e.orig)
			}
			return elim, core
		}
	}
}
