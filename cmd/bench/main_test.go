package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestQuickSweepWritesJSON runs the whole harness in quick mode and
// validates the output document: entries for every family, a cache-hit
// speedup block, and the acceptance threshold — a warm cache hit on an
// identical (and tuple-permuted) cyclic instance at least 10x faster than
// the cold run.
func TestQuickSweepWritesJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweep in -short mode")
	}
	out := filepath.Join(t.TempDir(), "BENCH_test.json")
	var log bytes.Buffer
	if err := run(&log, out, true, ""); err != nil {
		t.Fatalf("run: %v\nlog:\n%s", err, log.String())
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var doc Output
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	families := make(map[string]int)
	for _, e := range doc.Entries {
		families[e.Family]++
		if e.NsPerOp <= 0 || e.Iterations <= 0 {
			t.Errorf("entry %s has empty measurement: %+v", e.Name, e)
		}
	}
	for _, f := range []string{"pair", "acyclic", "cyclic", "cycliccore", "batch", "restart", "ingest"} {
		if families[f] == 0 {
			t.Errorf("no entries for family %q", f)
		}
	}
	if len(doc.Speedups) == 0 {
		t.Fatal("no cache speedups measured")
	}
	var sawRestart, sawDecomp, sawIngest bool
	for _, sp := range doc.Speedups {
		// cycliccore speedups compare solver configurations (the
		// decomposition vs the monolith) and ingest speedups
		// compare wire formats (bagcol decode vs text parse), not cache
		// tiers; no cache is configured in either.
		if sp.Family == "cycliccore" || sp.Family == "ingest" {
			if sp.Variant == "decomp" {
				sawDecomp = true
			}
			if sp.Family == "ingest" {
				sawIngest = true
			}
			if sp.ColdNs <= 0 || sp.WarmNs <= 0 {
				t.Errorf("%s/%s/%s: empty measurement: %+v", sp.Family, sp.Params, sp.Variant, sp)
			}
			continue
		}
		if !sp.CacheHit {
			t.Errorf("%s/%s: warm run did not hit the cache", sp.Family, sp.Variant)
		}
		if sp.Variant == "restart" {
			sawRestart = true
			if sp.DiskHits == 0 {
				t.Errorf("restart sweep recorded no disk hits — warm phase did not serve from the store")
			}
		}
		// Wall-clock ratios are meaningless under the race detector (its
		// overhead hits the allocation-heavy warm path much harder than
		// the search-bound cold path), so the numeric bar is release-only.
		if raceEnabled {
			continue
		}
		if sp.Family == "cyclic-3dct" && (sp.Variant == "identical" || sp.Variant == "permuted") && sp.Speedup < 10 {
			t.Errorf("%s/%s: speedup %.1fx below the 10x acceptance bar", sp.Family, sp.Variant, sp.Speedup)
		}
		// The restart bar dropped from 5x to 2x with the interned columnar
		// engine (PR 5): cold recomputation of the sweep got several times
		// faster while the disk hit path (fingerprint + read + decode) was
		// already fast, so the conservative disk-serving ratio shrank. It
		// must still be a clear win.
		if sp.Variant == "restart" && sp.Speedup < 2 {
			t.Errorf("restart: warm-start speedup %.1fx below the 2x acceptance bar", sp.Speedup)
		}
	}
	if !sawRestart {
		t.Error("no restart speedup measured")
	}
	if !sawDecomp {
		t.Error("no cycliccore decomp speedup measured")
	}
	if !sawIngest {
		t.Error("no ingest format speedup measured")
	}
}

func TestFamilyListAndCompare(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "BENCH_new.json")
	var log bytes.Buffer
	if err := run(&log, out, true, "pair,cyclic"); err != nil {
		t.Fatal(err)
	}
	doc, err := loadOutput(out)
	if err != nil {
		t.Fatal(err)
	}
	fams := map[string]bool{}
	for _, e := range doc.Entries {
		fams[e.Family] = true
	}
	if !fams["pair"] || !fams["cyclic"] || fams["acyclic"] {
		t.Fatalf("comma-separated -family selected %v", fams)
	}
	// CI's gate baseline: the run holds every uncached pair and cyclic
	// entry of the committed BENCH_pr7_quick.json.
	base, err := loadOutput("../../BENCH_pr7_quick.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := covers(doc, base); err != nil {
		t.Fatal(err)
	}

	// Compare against itself: zero regression, passes.
	if err := compareBaseline(&log, out, out, false); err != nil {
		t.Fatalf("self-compare failed: %v", err)
	}
	// Compare against a 2x-faster fabricated baseline: must fail.
	fast := *doc
	fast.Entries = append([]Entry(nil), doc.Entries...)
	for i := range fast.Entries {
		fast.Entries[i].NsPerOp /= 2
	}
	fastPath := filepath.Join(dir, "BENCH_fast.json")
	writeDoc(t, fastPath, &fast)
	if err := compareBaseline(&log, out, fastPath, false); err == nil {
		t.Fatal("compare against 2x-faster baseline did not fail")
	}
}

// gate runs compareBaseline on a quick baseline of uncached pair entries
// at 1000 ns/op and a run of the same entries at the given ns/op, minus
// the entry at index drop (-1 keeps all).
func gate(t *testing.T, quick bool, drop int, normalize bool, ns ...float64) error {
	t.Helper()
	dir := t.TempDir()
	base, doc := Output{Quick: true}, Output{Quick: quick}
	for i, n := range ns {
		e := Entry{Name: fmt.Sprintf("pair/auto/cache=off/support=%d", i), Family: "pair", Cache: "off", NsPerOp: 1000}
		base.Entries = append(base.Entries, e)
		if e.NsPerOp = n; i != drop {
			doc.Entries = append(doc.Entries, e)
		}
	}
	writeDoc(t, filepath.Join(dir, "run.json"), &doc)
	writeDoc(t, filepath.Join(dir, "base.json"), &base)
	return compareBaseline(io.Discard, filepath.Join(dir, "run.json"), filepath.Join(dir, "base.json"), normalize)
}

func TestCompareChecksCoverage(t *testing.T) {
	if err := gate(t, false, -1, true, 1000, 1000, 1000, 1000); err == nil || !strings.Contains(err.Error(), "full sweep, the baseline the quick sweep") {
		t.Errorf("full run against quick baseline: %v", err)
	}
	if err := gate(t, true, 1, true, 1000, 1000, 1000, 1000); err == nil || !strings.Contains(err.Error(), "support=1") {
		t.Errorf("run without support=1: %v", err)
	}
}

func TestCompareNormalize(t *testing.T) {
	// The median normalizer cancels a uniform 2x slowdown; the raw gate
	// does not.
	if err := gate(t, true, -1, true, 2000, 2000, 2000, 2000); err != nil {
		t.Errorf("uniform 2x slowdown failed the normalized gate: %v", err)
	}
	if err := gate(t, true, -1, false, 2000, 2000, 2000, 2000); err == nil {
		t.Error("uniform 2x slowdown passed the raw gate")
	}
	// One entry 1.5x slower than the rest fails.
	if err := gate(t, true, -1, true, 1000, 1000, 1500, 1000); err == nil || !strings.Contains(err.Error(), "support=2") {
		t.Errorf("one entry 1.5x slower than the rest: %v", err)
	}
}

func writeDoc(t *testing.T, path string, doc *Output) {
	t.Helper()
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestSingleFamily(t *testing.T) {
	out := filepath.Join(t.TempDir(), "BENCH_family.json")
	var log bytes.Buffer
	if err := run(&log, out, true, "batch"); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var doc Output
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	for _, e := range doc.Entries {
		if e.Family != "batch" {
			t.Errorf("unexpected family %q in filtered run", e.Family)
		}
	}
	if len(doc.Entries) == 0 {
		t.Fatal("filtered run produced no entries")
	}
}
