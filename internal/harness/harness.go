// Package harness holds the repo's one table of measured workloads
// (Cases) and its one measurement loop (Measure). Each case is a seeded
// instance, a configured operation and the answer check that operation
// makes, under the name cmd/bench reports it by. cmd/bench, the root
// package's go test -bench adapter and cmd/experiments all read the
// table, so a workload has one definition and one name in every tool;
// cmd/bench and cmd/experiments time it through Measure.
//
// The loop mirrors testing.B's shape — warm up, then run batches of
// doubling size until the minimum measurement time is reached — but works
// in plain binaries, propagates errors instead of aborting, and reports
// allocation counts from runtime.MemStats deltas (exact for the measured
// goroutine set, since Mallocs is process-wide; benchmarks therefore run
// their workload single-goroutine unless they are explicitly measuring
// the batch layer).
package harness

import (
	"runtime"
	"time"
)

// Result is one measurement.
type Result struct {
	// Iterations is the number of times the workload ran in the timed
	// window.
	Iterations int `json:"iterations"`
	// NsPerOp is mean wall time per iteration in nanoseconds.
	NsPerOp float64 `json:"ns_per_op"`
	// AllocsPerOp and BytesPerOp are mean heap allocations per iteration.
	AllocsPerOp float64 `json:"allocs_per_op"`
	// BytesPerOp is mean heap bytes allocated per iteration.
	BytesPerOp float64 `json:"bytes_per_op"`
	// Elapsed is the total timed duration.
	Elapsed time.Duration `json:"elapsed_ns"`
}

// Duration returns the mean wall time per iteration.
func (r Result) Duration() time.Duration { return time.Duration(r.NsPerOp) }

// Options tunes a measurement.
type Options struct {
	// MinTime is the minimum total timed duration (default 200ms). The
	// loop doubles batch sizes until it is exceeded.
	MinTime time.Duration
	// MaxIterations caps the iteration count (default 1_000_000). Set it
	// to 1 for one-shot measurements of expensive searches.
	MaxIterations int
	// SkipWarmup skips the single untimed warmup call (the warmup is what
	// keeps one-time lazy initialization out of the numbers; skip it when
	// the workload is cold-start by design, e.g. a cold-cache
	// measurement).
	SkipWarmup bool
}

func (o Options) withDefaults() Options {
	if o.MinTime <= 0 {
		o.MinTime = 200 * time.Millisecond
	}
	if o.MaxIterations <= 0 {
		o.MaxIterations = 1_000_000
	}
	return o
}

// Quick is the option set used by -quick sweeps: a shorter floor, same
// semantics.
var Quick = Options{MinTime: 40 * time.Millisecond}

// Measure times fn until opts.MinTime has elapsed (or MaxIterations is
// reached) and reports mean ns/op and allocs/op. The first error aborts
// the measurement.
func Measure(fn func() error, opts Options) (Result, error) {
	opts = opts.withDefaults()
	if !opts.SkipWarmup {
		if err := fn(); err != nil {
			return Result{}, err
		}
	}
	var res Result
	var m0, m1 runtime.MemStats
	batch := 1
	for {
		runtime.ReadMemStats(&m0)
		start := time.Now()
		for i := 0; i < batch; i++ {
			if err := fn(); err != nil {
				return Result{}, err
			}
		}
		elapsed := time.Since(start)
		runtime.ReadMemStats(&m1)
		res.Iterations += batch
		res.Elapsed += elapsed
		res.AllocsPerOp += float64(m1.Mallocs - m0.Mallocs)
		res.BytesPerOp += float64(m1.TotalAlloc - m0.TotalAlloc)
		if res.Elapsed >= opts.MinTime || res.Iterations >= opts.MaxIterations {
			break
		}
		// Grow toward the remaining time, like testing.B: at least double,
		// at most 100x, never past the cap.
		next := batch * 2
		if res.Elapsed > 0 {
			projected := int(float64(res.Iterations) * float64(opts.MinTime) / float64(res.Elapsed))
			if projected > next {
				next = projected
			}
		}
		if next > batch*100 {
			next = batch * 100
		}
		if rem := opts.MaxIterations - res.Iterations; next > rem {
			next = rem
		}
		batch = next
	}
	res.NsPerOp = float64(res.Elapsed.Nanoseconds()) / float64(res.Iterations)
	res.AllocsPerOp /= float64(res.Iterations)
	res.BytesPerOp /= float64(res.Iterations)
	return res, nil
}

// Once is a single-iteration measurement for workloads too expensive to
// loop (boundary branch-and-bound instances).
func Once(fn func() error) (Result, error) {
	return Measure(fn, Options{MinTime: 1, MaxIterations: 1, SkipWarmup: true})
}
