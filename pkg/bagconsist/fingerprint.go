package bagconsist

import (
	"context"

	"bagconsistency/internal/canon"
)

// FingerprintBags returns the canonical fingerprint of a bag list — the
// same 64-hex-digit SHA-256 the cache keys and trace `fp` attributes
// use — without running any consistency check. The fingerprint is
// invariant under tuple reordering and consistent per-attribute value
// renaming, which is exactly what makes it the right identity for
// hot-key accounting and shard routing: "the same instance asked two
// ways" hashes once.
//
// This is the client-side canonicalization fast path: a router or a
// load shedder can name an instance without paying for a check.
func FingerprintBags(bags []*Bag) (string, error) {
	can, err := canon.Bags(bags)
	if err != nil {
		return "", err
	}
	return can.FP.String(), nil
}

// FingerprintPair returns the canonical fingerprint of the two-bag
// instance (r, s) — the identity CheckGlobal's cache uses for the same
// two bags. CheckPair itself never fingerprints: its marginal test is
// cheaper than canonicalization.
func FingerprintPair(r, s *Bag) (string, error) {
	return FingerprintBags([]*Bag{r, s})
}

// FingerprintCollection returns the canonical fingerprint of a global
// query over the collection — the instance identity CheckGlobal uses.
func FingerprintCollection(coll *Collection) (string, error) {
	if coll == nil {
		return FingerprintBags(nil)
	}
	return FingerprintBags(coll.Bags())
}

// CheckObserver receives one call per cache-backed check with the
// query kind (always "global": only CheckGlobal is cached), the
// instance's canonical fingerprint, and whether the result was served
// from cache (RAM, disk, or a coalesced in-flight computation) rather
// than computed for this caller. It runs on the request path after the
// result is determined — implementations must be fast and must not
// block.
type CheckObserver func(ctx context.Context, kind, fp string, cacheHit bool)

// WithCheckObserver installs a telemetry observer on the Checker's
// cached-check path. Observation only: the observer never changes a
// verdict, a cache key, or the Report wire format, so it is
// deliberately excluded from optionsKey. CheckPair is never observed,
// and neither are global checks that fail, are cancelled, or bypass the
// cache path (no cache configured, canonicalization error).
func WithCheckObserver(fn CheckObserver) Option {
	return func(c *config) { c.observer = fn }
}
