package bagconsist

import (
	"time"

	"bagconsistency/internal/bag"
)

// Report is the unified, JSON-serializable result of every Checker query.
// Encoding is deterministic for a fixed result: witness rows are emitted
// in the bag's sorted tuple order.
type Report struct {
	// Consistent is the decision.
	Consistent bool `json:"consistent"`
	// Method names the procedure that produced the decision: "marginal"
	// (CheckPair), "max-flow" (PairWitness), or one of
	// "acyclic-jointree", "pairwise-refuted", "integer-program" and
	// "hybrid-decomposition" (CheckGlobal). CheckBatch marks a failed
	// slot "error".
	Method string `json:"method"`
	// Bags is the number of bags in the checked instance.
	Bags int `json:"bags"`
	// Nodes counts integer-search nodes (0 when no search ran).
	Nodes int64 `json:"search_nodes,omitempty"`
	// WitnessSupport is the support size of the witness, when one was
	// constructed.
	WitnessSupport int `json:"witness_support,omitempty"`
	// Witness is the witnessing bag, when one was constructed.
	Witness *Witness `json:"witness,omitempty"`
	// CacheHit reports that the result was served from the Checker's
	// cache (or coalesced onto a concurrent identical query) rather than
	// recomputed; Nodes and Method then describe the original
	// computation, and Elapsed the lookup.
	CacheHit bool `json:"cache_hit,omitempty"`
	// Elapsed is the wall time of the query (nanoseconds in JSON).
	Elapsed time.Duration `json:"elapsed_ns"`
	// Phases is the request's phase-timing tree, populated only when the
	// query ran under a tracing context (TraceContext, or a traced bagcd
	// request). Untraced queries omit it, keeping the wire format of
	// previous releases byte-identical.
	Phases []PhaseSpan `json:"phases,omitempty"`
	// Error records a per-instance failure inside CheckBatch; single
	// queries return Go errors instead and never set it.
	Error string `json:"error,omitempty"`
}

// Witness is the wire form of a witnessing bag: its schema and its
// support rows with multiplicities, in sorted tuple order.
type Witness struct {
	Attrs []string     `json:"attrs"`
	Rows  []WitnessRow `json:"rows"`

	b     *bag.Bag
	order []int32 // b's row position of each of Rows, when built from b
}

// WitnessRow is one support tuple of a witness.
type WitnessRow struct {
	Values []string `json:"values"`
	Count  int64    `json:"count"`
}

// newWitness captures a bag into its wire form, in the bag's sorted
// tuple order so the encoding is deterministic. Every row's values are
// resolved into one flat slice.
func newWitness(b *bag.Bag) *Witness {
	if b == nil {
		return nil
	}
	order := b.OrderedPositions()
	w := &Witness{Attrs: b.Schema().Attrs(), b: b, order: order}
	if len(order) == 0 {
		return w
	}
	v := b.View()
	width := v.Rows.W
	dicts := make([][]string, width)
	for j, d := range v.Cols {
		dicts[j] = d.Snapshot()
	}
	flat := make([]string, len(order)*width)
	w.Rows = make([]WitnessRow, len(order))
	for k, pos := range order {
		vals := flat[k*width : (k+1)*width : (k+1)*width]
		for j, id := range v.Rows.Row(int(pos)) {
			vals[j] = dicts[j][id]
		}
		w.Rows[k] = WitnessRow{Values: vals, Count: v.Rows.Counts[pos]}
	}
	return w
}

// Bag returns the witness as a Bag for further algebra (marginals,
// verification). Witnesses decoded from JSON are rebuilt on first use.
func (w *Witness) Bag() (*Bag, error) {
	if w == nil {
		return nil, nil
	}
	if w.b != nil {
		return w.b, nil
	}
	s, err := bag.NewSchema(w.Attrs...)
	if err != nil {
		return nil, err
	}
	b := bag.New(s)
	for _, r := range w.Rows {
		if err := b.Add(r.Values, r.Count); err != nil {
			return nil, err
		}
	}
	w.b = b
	return b, nil
}

// WitnessBag is Report.Witness.Bag() with nil-safety: it returns nil when
// the report carries no witness.
func (r *Report) WitnessBag() (*Bag, error) {
	if r == nil || r.Witness == nil {
		return nil, nil
	}
	return r.Witness.Bag()
}
