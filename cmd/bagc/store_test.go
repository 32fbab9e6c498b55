package main

import (
	"bytes"
	"context"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"bagconsistency/internal/gen"
	"bagconsistency/internal/hypergraph"
	"bagconsistency/pkg/bagconsist"
)

// populateStore computes n results into a persistent store and returns
// the dir.
func populateStore(t *testing.T, n int) string {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "bagstore")
	st, err := bagconsist.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	ck := bagconsist.New(bagconsist.WithStore(st))
	for i := 0; i < n; i++ {
		rng := rand.New(rand.NewSource(int64(100 + i)))
		coll, _, err := gen.RandomConsistent(rng, hypergraph.Star(3), 8, 16, 3)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ck.CheckGlobal(context.Background(), coll); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

func TestStoreInspectVerifyCompact(t *testing.T) {
	dir := populateStore(t, 5)

	var out bytes.Buffer
	if err := run([]string{"store", "inspect", dir}, &out); err != nil {
		t.Fatalf("inspect: %v\n%s", err, out.String())
	}
	for _, want := range []string{"segments:", "records:    5 (5 live, 0 superseded)", "kind global: 5 live record(s)", "corrupt:    0"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("inspect output missing %q:\n%s", want, out.String())
		}
	}

	out.Reset()
	if err := run([]string{"store", "verify", dir}, &out); err != nil {
		t.Fatalf("verify: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "corrupt=0") || !strings.Contains(out.String(), "ok") {
		t.Fatalf("verify output:\n%s", out.String())
	}

	out.Reset()
	if err := run([]string{"store", "compact", dir}, &out); err != nil {
		t.Fatalf("compact: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "5 live record(s) kept") {
		t.Fatalf("compact output:\n%s", out.String())
	}
}

// TestStoreTornTailRoundTrip is the acceptance scenario end to end at
// the CLI: a torn store verifies with a reported tear, compact heals it,
// and a second verify is clean with all records intact.
func TestStoreTornTailRoundTrip(t *testing.T) {
	dir := populateStore(t, 4)

	// Tear the tail of the last segment: append half a record header.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var lastSeg string
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "seg-") {
			lastSeg = filepath.Join(dir, e.Name())
		}
	}
	if lastSeg == "" {
		t.Fatal("no segment file found")
	}
	f, err := os.OpenFile(lastSeg, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0xB5, 0xA6, 1, 2, 0xDE, 0xAD}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	var out bytes.Buffer
	if err := run([]string{"store", "verify", dir}, &out); err != nil {
		t.Fatalf("verify on torn store must succeed (torn != corrupt): %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "torn_tail=true") || !strings.Contains(out.String(), "records=4") {
		t.Fatalf("torn verify output:\n%s", out.String())
	}

	out.Reset()
	if err := run([]string{"store", "compact", dir}, &out); err != nil {
		t.Fatalf("compact on torn store: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "4 live record(s) kept") {
		t.Fatalf("compact output:\n%s", out.String())
	}

	out.Reset()
	if err := run([]string{"store", "verify", dir}, &out); err != nil {
		t.Fatalf("verify after compact: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "corrupt=0") || !strings.Contains(out.String(), "torn_tail=false") ||
		!strings.Contains(out.String(), "live=4") {
		t.Fatalf("post-compact verify output:\n%s", out.String())
	}

	// And the healed store still serves every result to a fresh checker.
	st, err := bagconsist.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	ck := bagconsist.New(bagconsist.WithStore(st))
	for i := 0; i < 4; i++ {
		rng := rand.New(rand.NewSource(int64(100 + i)))
		coll, _, err := gen.RandomConsistent(rng, hypergraph.Star(3), 8, 16, 3)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := ck.CheckGlobal(context.Background(), coll)
		if err != nil || !rep.CacheHit {
			t.Fatalf("instance %d after round trip: rep=%+v err=%v", i, rep, err)
		}
	}
}

func TestStoreBadUsage(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"store"}, &out); err == nil {
		t.Error("bare `bagc store` accepted")
	}
	if err := run([]string{"store", "frobnicate", t.TempDir()}, &out); err == nil {
		t.Error("unknown subcommand accepted")
	}
	if err := run([]string{"store", "verify"}, &out); err == nil {
		t.Error("missing dir accepted")
	}
}
