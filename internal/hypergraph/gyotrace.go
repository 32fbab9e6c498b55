package hypergraph

import (
	"fmt"
	"strings"
)

// GYOStepKind distinguishes the two operations of the GYO (Graham)
// reduction.
type GYOStepKind int

const (
	// GYOEarVertex records the removal of a vertex occurring in exactly
	// one hyperedge.
	GYOEarVertex GYOStepKind = iota
	// GYOCoveredEdge records the removal of a hyperedge contained in
	// another.
	GYOCoveredEdge
)

// GYOStep is one step of the reduction trace.
type GYOStep struct {
	Kind GYOStepKind
	// Vertex is the removed ear vertex (GYOEarVertex).
	Vertex string
	// Edge is the removed hyperedge's content at removal time
	// (GYOCoveredEdge), possibly already shrunk by earlier ear removals.
	Edge []string
}

// String describes the step.
func (s GYOStep) String() string {
	if s.Kind == GYOEarVertex {
		return fmt.Sprintf("remove ear vertex %s", s.Vertex)
	}
	return fmt.Sprintf("remove covered edge {%s}", strings.Join(s.Edge, ","))
}

// GYOTrace runs the GYO (Graham) reduction and returns the full step
// sequence together with whether the hypergraph is acyclic (the reduction
// ends with at most one edge). It is the explain-mode view of the same
// reduction IsAcyclic and CoreDecomposition run: the trace is a
// certificate a human can replay.
func (h *Hypergraph) GYOTrace() (steps []GYOStep, acyclic bool) {
	_, core := h.gyo(&steps)
	return steps, len(core) <= 1
}
