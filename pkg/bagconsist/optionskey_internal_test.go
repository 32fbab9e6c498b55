package bagconsist

import "testing"

// TestOptionsKeySolverKnobs pins the cache-key contract of the solver
// knobs: solver parallelism must NOT change the key (the verdict and
// witness validity are worker-count invariant, and persisted stores
// written before the knob existed must keep hitting).
func TestOptionsKeySolverKnobs(t *testing.T) {
	base := defaultConfig()

	withWorkers := base
	WithSolverParallelism(8)(&withWorkers)
	if got, want := withWorkers.optionsKey(), base.optionsKey(); got != want {
		t.Fatalf("solver parallelism changed the cache key: %q vs %q", got, want)
	}

	// The base key itself must stay byte-for-byte what pre-PR 7 binaries
	// wrote into persistent stores.
	if got, want := base.optionsKey(), "m0|n0|lpfalse|blfalse|wmtrue"; got != want {
		t.Fatalf("default options key drifted: %q, want %q", got, want)
	}
}
