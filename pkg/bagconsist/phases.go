package bagconsist

import (
	"context"

	"bagconsistency/internal/trace"
)

// PhaseSpan is one node of a Report's phase-timing tree: where a request
// spent its time, from fingerprinting through cache tiers down to the
// ILP search. Times are nanoseconds relative to the trace start;
// Counters carry engine statistics (ILP nodes, flow augmentations) and
// Attrs qualitative outcomes (cache hit/miss, method, fingerprint).
//
// The tree is populated only on traced requests — plain contexts keep
// Report byte-identical to previous releases (phases is omitempty).
// See docs/OBSERVABILITY.md for the span taxonomy.
type PhaseSpan struct {
	Name       string            `json:"name"`
	StartNs    int64             `json:"start_ns"`
	DurationNs int64             `json:"duration_ns"`
	Attrs      map[string]string `json:"attrs,omitempty"`
	Counters   map[string]int64  `json:"counters,omitempty"`
	Children   []PhaseSpan       `json:"children,omitempty"`
}

// TraceContext returns a context that records phase spans for every
// Checker query made with it: the resulting Reports carry the timing
// tree in Report.Phases. Each call starts one independent trace; use a
// fresh TraceContext per request. Contexts without a trace (the default)
// skip all recording via a nil-check fast path.
func TraceContext(ctx context.Context) context.Context {
	return trace.NewContext(ctx, trace.New(trace.ID{}, trace.SpanRequest))
}

// attachPhases copies the context's trace tree, if any, into the Report.
// Called after the query's check span has ended, so every engine span
// carries its final duration; only the request root (owned by the caller
// or serving layer) may still be running.
func attachPhases(ctx context.Context, rep *Report) {
	if rep == nil {
		return
	}
	tr := trace.FromContext(ctx)
	if tr == nil {
		return
	}
	snap := tr.Snapshot()
	rep.Phases = []PhaseSpan{phaseFromNode(snap.Root)}
}

func phaseFromNode(n *trace.Node) PhaseSpan {
	p := PhaseSpan{
		Name:       n.Name,
		StartNs:    n.StartNs,
		DurationNs: n.DurationNs,
		Attrs:      n.Attrs,
		Counters:   n.Counters,
	}
	if len(n.Children) > 0 {
		p.Children = make([]PhaseSpan, len(n.Children))
		for i, c := range n.Children {
			p.Children[i] = phaseFromNode(c)
		}
	}
	return p
}
