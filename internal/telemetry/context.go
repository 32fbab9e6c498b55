package telemetry

import (
	"context"
	"sync"
)

// Capture is a per-request carrier the check observer writes into and
// the caller reads after the check returns. It rides the request
// context (like httptrace.ClientTrace) so the fingerprint computed deep
// inside the cache layer reaches the caller without recomputing
// canonicalization or widening the Report wire format. Its one user
// outside tests is perfbench's in-process replay, which installs
// RecordCheck as its Checker's observer but attaches no Capture.
type Capture struct {
	mu       sync.Mutex
	fp       string
	cacheHit bool
	set      bool
}

// Record stores the check's canonical fingerprint and cache outcome.
// Last write wins; a request performs exactly one check, so in
// practice this is written once.
func (c *Capture) Record(fp string, cacheHit bool) {
	if c == nil || fp == "" {
		return
	}
	c.mu.Lock()
	c.fp, c.cacheHit, c.set = fp, cacheHit, true
	c.mu.Unlock()
}

// Get returns the recorded fingerprint and cache outcome, reporting
// whether anything was recorded.
func (c *Capture) Get() (fp string, cacheHit, ok bool) {
	if c == nil {
		return "", false, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.fp, c.cacheHit, c.set
}

type captureKey struct{}

// WithCapture attaches a fresh Capture to ctx and returns both. Only
// tests call it.
func WithCapture(ctx context.Context) (context.Context, *Capture) {
	c := &Capture{}
	return context.WithValue(ctx, captureKey{}, c), c
}

// RecordCheck writes into the Capture attached to ctx, if any. This is
// the function shape pkg/bagconsist's WithCheckObserver expects;
// perfbench's replay is the one caller that installs it.
func RecordCheck(ctx context.Context, _ string, fp string, cacheHit bool) {
	if c, ok := ctx.Value(captureKey{}).(*Capture); ok {
		c.Record(fp, cacheHit)
	}
}
