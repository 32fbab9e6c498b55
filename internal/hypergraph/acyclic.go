package hypergraph

// IsAcyclic reports whether the hypergraph is α-acyclic, using the GYO
// (Graham / Yu–Özsoyoğlu) reduction: repeatedly delete "ear" vertices that
// occur in exactly one edge and edges contained in other edges; the
// hypergraph is acyclic iff at most one edge survives, that is, iff the
// core of CoreDecomposition has at most one edge.
//
// By Theorem 1 of the paper (Theorem 3.4 of BFMY83) this is equivalent to
// being conformal and chordal, to having the running intersection property,
// and to having a join tree; the equivalences are exercised by tests.
func (h *Hypergraph) IsAcyclic() bool {
	_, core := h.CoreDecomposition()
	return len(core) <= 1
}

// IsCyclic reports the negation of IsAcyclic.
func (h *Hypergraph) IsCyclic() bool { return !h.IsAcyclic() }
