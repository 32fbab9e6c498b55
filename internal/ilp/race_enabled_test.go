//go:build race

package ilp_test

// raceEnabled reports whether the race detector is on, under which
// allocation counts are not meaningful (mirrors internal/core's pattern).
const raceEnabled = true
