package bagconsist

import "testing"

// TestOptionsKeySolverKnobs pins the cache-key contract of the solver
// knobs: the default key must stay byte-for-byte what pre-PR 7 binaries
// wrote into persistent stores, so stores written by older binaries keep
// hitting.
func TestOptionsKeySolverKnobs(t *testing.T) {
	if got, want := defaultConfig().optionsKey(), "m0|n0|lpfalse|blfalse|wmtrue"; got != want {
		t.Fatalf("default options key drifted: %q, want %q", got, want)
	}
}
