package telemetry

import (
	"context"
	"testing"
)

func TestCaptureContext(t *testing.T) {
	ctx, cap := WithCapture(context.Background())
	if _, _, ok := cap.Get(); ok {
		t.Fatal("fresh capture must be empty")
	}
	RecordCheck(ctx, "pair", "deadbeef", true)
	fp, hit, ok := cap.Get()
	if !ok || fp != "deadbeef" || !hit {
		t.Fatalf("capture = (%q, %v, %v)", fp, hit, ok)
	}
	// A context without a capture is a no-op, not a panic.
	RecordCheck(context.Background(), "pair", "deadbeef", true)
	// Nil capture and empty fingerprint are safe too.
	var nilCap *Capture
	nilCap.Record("x", false)
	cap.Record("", false)
	if fp, _, _ = cap.Get(); fp != "deadbeef" {
		t.Fatalf("empty record must not clobber, fp = %q", fp)
	}
}
