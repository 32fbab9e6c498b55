package service

import (
	"math"
	"sync/atomic"
)

// Admission control sheds by predicted hardness. The paper's dichotomy
// makes request cost wildly bimodal: acyclic instances decide in
// polynomial time (microseconds on this engine) while cyclic ones run an
// NP-hard integer search that can take milliseconds to seconds. A plain
// drop-tail queue is blind to that split — under overload a handful of
// cyclic requests occupy every worker while thousands of cheap requests
// shed behind them (EXP-002). So every request's cost class is predicted
// at admission (schema acyclicity via the GYO reduction, plus instance
// size), predicted-expensive work sheds first once queue occupancy
// crosses Config.ShedThreshold, and requests whose caller deadline
// cannot outlast the estimated queue wait plus service time shed
// immediately.

// Cost is the admission-time prediction of how expensive a request is.
type Cost int

const (
	// CostCheap predicts polynomial work: a pair check, or a global check
	// over an acyclic schema of modest support.
	CostCheap Cost = iota
	// CostExpensive predicts the NP-hard side of the dichotomy (cyclic
	// schema — the integer search) or an instance large enough that even
	// polynomial work monopolizes a worker.
	CostExpensive
)

// String names the cost class as it appears in metric labels.
func (c Cost) String() string {
	if c == CostExpensive {
		return "expensive"
	}
	return "cheap"
}

// DefaultExpensiveSupport is the total-support threshold above which even
// polynomially-checkable instances are classed expensive: past this size
// the sort-based acyclic composition itself holds a worker long enough to
// matter under overload.
const DefaultExpensiveSupport = 1 << 16

// Shed reasons, the labels of bagcd_load_shed_total.
const (
	shedQueueFull = "queue_full"          // drop-tail: admission queue at capacity
	shedExpensive = "predicted_expensive" // expensive work past the shed threshold
	shedDeadline  = "deadline_unmeetable" // predicted wait+service exceeds the caller's deadline
)

// classifyCost predicts a request's cost class without touching the data
// plane: schema acyclicity by the GYO reduction (a structural property of
// the hypergraph, independent of instance size) and total support. Pair
// requests always run the strongly polynomial marginal test, so only
// their size can make them expensive.
func classifyCost(req Request, expensiveSupport int) Cost {
	support := 0
	cyclic := false
	switch req.Kind {
	case Pair:
		if req.R != nil {
			support += req.R.Len()
		}
		if req.S != nil {
			support += req.S.Len()
		}
	default:
		if req.Collection != nil {
			for _, b := range req.Collection.Bags() {
				support += b.Len()
			}
			// The dichotomy: cyclic schema => pairwise refutation then the
			// exact integer search. That search is the expensive tier.
			cyclic = req.Collection.Hypergraph().IsCyclic()
		}
	}
	if cyclic || support > expensiveSupport {
		return CostExpensive
	}
	return CostCheap
}

// ewma is a concurrency-safe exponentially weighted moving average of
// observed service times, the estimator behind deadline-aware admission.
// Zero until the first observation; readers treat "no data" as "predict
// nothing" so an idle daemon never sheds on a cold estimator.
type ewma struct {
	bits atomic.Uint64 // float64 bits of the current mean
	n    atomic.Uint64 // observation count (0 = no estimate yet)
}

// ewmaAlpha weights the newest observation: high enough to track load
// shifts within tens of requests, low enough that one outlier does not
// swing admission.
const ewmaAlpha = 0.2

func (e *ewma) observe(v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
		return
	}
	if e.n.Add(1) == 1 {
		e.bits.Store(math.Float64bits(v))
		return
	}
	for {
		old := e.bits.Load()
		next := math.Float64bits((1-ewmaAlpha)*math.Float64frombits(old) + ewmaAlpha*v)
		if e.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// value returns the current estimate and whether any observation backs it.
func (e *ewma) value() (float64, bool) {
	if e.n.Load() == 0 {
		return 0, false
	}
	return math.Float64frombits(e.bits.Load()), true
}
