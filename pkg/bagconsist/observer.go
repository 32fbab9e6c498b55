package bagconsist

import "context"

// CheckObserver receives one call per cache-backed check with the
// query kind (always "global": only CheckGlobal is cached), the
// instance's canonical fingerprint, and whether the result was served
// from cache (RAM, disk, or a coalesced in-flight computation) rather
// than computed for this caller. It runs on the request path after the
// result is determined — implementations must be fast and must not
// block. The one observer outside tests is telemetry.RecordCheck,
// which perfbench's in-process replay installs.
type CheckObserver func(ctx context.Context, kind, fp string, cacheHit bool)

// WithCheckObserver installs a telemetry observer on the Checker's
// cached-check path. Observation only: the observer never changes a
// verdict, a cache key, or the Report wire format, so it is
// deliberately excluded from optionsKey. CheckPair is never observed,
// and neither are global checks that fail, are cancelled, or bypass the
// cache path (no cache configured, canonicalization error).
// perfbench's in-process replay is its one caller outside tests.
func WithCheckObserver(fn CheckObserver) Option {
	return func(c *config) { c.observer = fn }
}
