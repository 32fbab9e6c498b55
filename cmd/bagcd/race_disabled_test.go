//go:build !race

package main

// raceEnabled gates numeric allocation bars: the race detector's
// instrumentation allocates, so ceilings are asserted release-only.
const raceEnabled = false
