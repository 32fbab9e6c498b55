package main

import (
	"io"
	"strings"
	"testing"

	"bagconsistency/internal/service"
)

func TestMaxBodyBytesFlag(t *testing.T) {
	opt, _, err := parseFlags([]string{"-max-body-bytes", "1073741824"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if opt.maxBodyBytes != 1<<30 {
		t.Fatalf("maxBodyBytes = %d", opt.maxBodyBytes)
	}

	opt, _, err = parseFlags(nil, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if opt.maxBodyBytes != service.DefaultMaxBodyBytes {
		t.Fatalf("default maxBodyBytes = %d, want %d", opt.maxBodyBytes, service.DefaultMaxBodyBytes)
	}

	if _, _, err := parseFlags([]string{"-max-body-bytes", "0"}, io.Discard); err == nil ||
		!strings.Contains(err.Error(), "-max-body-bytes") {
		t.Fatalf("zero cap accepted: %v", err)
	}
}

// TestRemovedFlags: hardness-aware shedding is the only admission
// policy, and the cost-model calibrator and the hot-key sketch are gone,
// so the flags that selected the policy, paced the calibrator and sized
// the sketch are unknown.
func TestRemovedFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-admission", "hardness"},
		{"-calib-interval", "1m"},
		{"-hotkey-k", "0"},
	} {
		_, _, err := parseFlags(args, io.Discard)
		if err == nil || !strings.Contains(err.Error(), "flag provided but not defined") {
			t.Errorf("parseFlags(%v): err = %v, want an unknown-flag error", args, err)
		}
	}
}
