// Command bench measures the workload table of internal/harness through
// the shared internal/harness loop and writes the sweep as JSON, so the
// repo's performance trajectory (BENCH_pr2.json and successors) is
// regenerable with one command. Every instance is seeded, so two runs on
// one machine measure the same instances; entries are in table order.
//
// Usage:
//
//	bench [-quick] [-out BENCH_pr2.json] [-family pair,acyclic,...]
//	      [-compare BASELINE.json [-normalize]]
//
// -family takes a comma-separated subset of the table's families (empty =
// all): pair, acyclic and cyclic sweep the Flow/LP/ILP/Auto methods with
// and without the result cache; cycliccore is the parallel-solver
// acceptance sweep (BENCH_pr7.json); cache, batch and restart measure the
// serving tiers (restart is BENCH_pr4.json); ingest is the bulk-load
// decode sweep (BENCH_pr10.json); core times the paper's experiments
// E1–E9 one engine call each, ablation the witness-minimization and
// LP-pruning ablations, ext the Section 6 extensions, and api the
// fingerprint, Report encoding and batch layers. A case that names
// another case as its baseline adds a Speedup record.
//
// -compare is the CI regression gate: after the sweep it compares the
// run's uncached pair, acyclic, cyclic, cycliccore and ingest entries
// with a committed baseline and exits nonzero if any is more than 25%
// slower in ns/op. It also fails when the baseline is the other sweep, or
// when an uncached baseline entry of a family the run measured is missing
// from the run. The gate compares wall-clock numbers: run both on one
// machine class, or pass -normalize.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"

	"bagconsistency/internal/buildinfo"
	"bagconsistency/internal/harness"
)

func main() {
	quick := flag.Bool("quick", false, "shorter measurement floors and smaller sweeps")
	out := flag.String("out", "BENCH_pr2.json", "output JSON path (- for stdout)")
	family := flag.String("family", "", "comma-separated families to run (pair, acyclic, cyclic, cycliccore, cache, batch, restart, core, ablation, ext, api, ingest; empty = all)")
	compare := flag.String("compare", "", "baseline BENCH json; exit nonzero on >25% ns/op regression in uncached engine families")
	normalize := flag.Bool("normalize", false, "with -compare: divide ratios by their median first, gating relative regressions only (for runners of a different speed class than the baseline machine)")
	version := flag.Bool("version", false, "print version and exit")
	flag.Parse()
	if *version {
		fmt.Println("bench", buildinfo.String())
		return
	}
	if err := run(os.Stderr, *out, *quick, *family); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	if *compare != "" {
		if err := compareBaseline(os.Stderr, *out, *compare, *normalize); err != nil {
			fmt.Fprintln(os.Stderr, "bench: -compare:", err)
			os.Exit(1)
		}
	}
}

// Entry is one measured configuration.
type Entry struct {
	Name   string `json:"name"`
	Family string `json:"family"`
	Method string `json:"method"`
	// Cache is the cache mode: "off" (no cache configured), "cold"
	// (cache configured, instance not yet cached — fingerprint plus full
	// compute), or "warm" (every measured query hits).
	Cache string `json:"cache"`
	// Params names the instance knobs, e.g. "support=256" or "n=3".
	Params      string  `json:"params"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	// HitRate is the cache hit rate over the measurement, when a cache
	// was configured.
	HitRate float64 `json:"hit_rate,omitempty"`
	// TuplesPerSec is decode throughput for the ingest family (tuples in
	// the instance divided by ns/op).
	TuplesPerSec float64 `json:"tuples_per_sec,omitempty"`
	// PeakRSSBytes is the process's high-water resident set size when the
	// measurement finished (ingest family; 0 where unsupported). Peak RSS
	// is monotone over the process lifetime, so within one run an entry's
	// value reflects every measurement up to and including its own.
	PeakRSSBytes int64 `json:"peak_rss_bytes,omitempty"`
}

// Speedup records a case's acceleration over the case it names as its
// baseline: the cold (baseline) ns/op over the warm (case) ns/op. For the
// cache family that is the uncached check against a cache hit on the same
// instance; for restart, a warm start from disk (an empty RAM tier
// serving from the persistent store); for cycliccore, a parallel arm
// against the sequential search; for ingest, a binary decode against the
// text parser.
type Speedup struct {
	Family   string  `json:"family"`
	Params   string  `json:"params"`
	Variant  string  `json:"variant"` // identical | permuted | renamed | restart | par4 | par4+decomp | bagcol | bagcol-mmap
	ColdNs   float64 `json:"cold_ns_per_op"`
	WarmNs   float64 `json:"warm_ns_per_op"`
	Speedup  float64 `json:"speedup"`
	CacheHit bool    `json:"cache_hit"`
	// DiskHits counts persistent-store hits during the warm measurement
	// (restart family only): nonzero proves the results came from disk,
	// not recomputation.
	DiskHits uint64 `json:"disk_hits,omitempty"`
}

// Output is the BENCH_*.json document. Runner attributes the numbers to
// a machine class and commit — a committed baseline is only comparable
// to a candidate from the same class, and the -compare gate's -normalize
// mode exists precisely because CI runners are not the baseline machine.
type Output struct {
	Bench      string               `json:"bench"`
	Runner     buildinfo.RunnerMeta `json:"runner"`
	GoVersion  string               `json:"go_version"`
	GOMAXPROCS int                  `json:"gomaxprocs"`
	Quick      bool                 `json:"quick"`
	Entries    []Entry              `json:"entries"`
	Speedups   []Speedup            `json:"cache_speedups"`
}

func run(log io.Writer, outPath string, quick bool, family string) error {
	opts := harness.Options{}
	if quick {
		opts = harness.Quick
	}
	benchName := "bench"
	if outPath != "-" {
		benchName = strings.TrimSuffix(filepath.Base(outPath), ".json")
	}
	doc := &Output{
		Bench:      benchName,
		Runner:     buildinfo.Runner(),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Quick:      quick,
	}
	want := map[string]bool{}
	for _, f := range strings.Split(family, ",") {
		if f = strings.TrimSpace(f); f != "" {
			want[f] = true
		}
	}
	var ran []harness.Case
	measured := map[string]float64{}
	diskHits := map[string]uint64{}
	for _, c := range harness.Cases() {
		if !c.In(quick) || (len(want) > 0 && !want[c.Family]) {
			continue
		}
		if len(ran) == 0 || ran[len(ran)-1].Family != c.Family {
			fmt.Fprintf(log, "== %s ==\n", c.Family)
		}
		e, hits, err := measure(c, opts)
		if err != nil {
			return fmt.Errorf("%s: %w", c.Name, err)
		}
		doc.Entries = append(doc.Entries, e)
		fmt.Fprintf(log, "  %-44s %12.0f ns/op %10.0f allocs/op\n", e.Name, e.NsPerOp, e.AllocsPerOp)
		if e.TuplesPerSec > 0 {
			fmt.Fprintf(log, "  %-44s %12.1f Mtuples/s, peak RSS %d MiB\n", "", e.TuplesPerSec/1e6, e.PeakRSSBytes>>20)
		}
		ran = append(ran, c)
		measured[c.Name] = e.NsPerOp
		diskHits[c.Name] = hits
	}
	// A case that names the case it is compared against is a speedup over
	// it. Every warm case fails on a cache miss, so a measured one hit.
	for _, c := range ran {
		v := c.Versus
		if v == nil {
			continue
		}
		cold, ok := measured[v.Case]
		if !ok {
			continue
		}
		warm := measured[c.Name]
		sp := Speedup{
			Family: v.Family, Params: v.Params, Variant: v.Variant,
			ColdNs: cold, WarmNs: warm, Speedup: cold / warm,
			CacheHit: c.Cache == "warm", DiskHits: diskHits[c.Name],
		}
		doc.Speedups = append(doc.Speedups, sp)
		fmt.Fprintf(log, "  speedup %-36s %10.2fx (%.0f ns -> %.0f ns)\n", sp.Family+"/"+sp.Params+"/"+sp.Variant, sp.Speedup, cold, warm)
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if outPath == "-" {
		_, err = os.Stdout.Write(data)
		return err
	}
	if err := os.WriteFile(outPath, data, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(log, "wrote %s (%d entries, %d speedups)\n", outPath, len(doc.Entries), len(doc.Speedups))
	return nil
}

// measure sets a case up, times its operation and closes it. It also
// returns the store's disk hits over the measurement.
func measure(c harness.Case, opts harness.Options) (e Entry, diskHits uint64, err error) {
	r, err := c.Setup()
	if err != nil {
		return e, 0, err
	}
	defer func() {
		if cerr := r.Close(); err == nil {
			err = cerr
		}
	}()
	res, err := harness.Measure(func() error { _, err := r.Op(); return err }, opts)
	if err != nil {
		return e, 0, err
	}
	e = Entry{
		Name: c.Name, Family: c.Family, Method: c.Method, Cache: c.Cache, Params: c.Params,
		Iterations: res.Iterations, NsPerOp: res.NsPerOp, AllocsPerOp: res.AllocsPerOp, BytesPerOp: res.BytesPerOp,
	}
	if r.HitRate != nil {
		e.HitRate = r.HitRate()
	}
	if r.DiskHits != nil {
		diskHits = r.DiskHits()
	}
	if r.Tuples > 0 {
		e.TuplesPerSec = float64(r.Tuples) / res.NsPerOp * 1e9
		e.PeakRSSBytes = peakRSSBytes()
	}
	return e, diskHits, nil
}

// loadOutput reads a BENCH_*.json document.
func loadOutput(path string) (*Output, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc Output
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &doc, nil
}

// engineFamilies are the uncached compute families the regression gate
// watches: the ones a data-plane change moves. Cache/batch/restart
// measure the serving tiers and have their own bars in the tests.
var engineFamilies = map[string]bool{"pair": true, "acyclic": true, "cyclic": true, "cycliccore": true, "ingest": true}

// maxRegression is the -compare failure threshold.
const maxRegression = 1.25

// covers checks that a run can be gated against a baseline: both are the
// same sweep, and every uncached baseline entry of a family the run
// measured is in the run, so a renamed or dropped workload cannot leave
// the gate unnoticed.
func covers(doc, base *Output) error {
	sweep := map[bool]string{true: "quick", false: "full"}
	if doc.Quick != base.Quick {
		return fmt.Errorf("the run is the %s sweep, the baseline the %s sweep", sweep[doc.Quick], sweep[base.Quick])
	}
	names, families := make(map[string]bool), make(map[string]bool)
	for _, e := range doc.Entries {
		names[e.Name], families[e.Family] = true, true
	}
	var missing []string
	for _, be := range base.Entries {
		if be.Cache == "off" && families[be.Family] && !names[be.Name] {
			missing = append(missing, be.Name)
		}
	}
	if len(missing) > 0 {
		return fmt.Errorf("%d uncached baseline entries missing from the run:\n  %s", len(missing), strings.Join(missing, "\n  "))
	}
	return nil
}

// compareBaseline fails (with a listing) when any uncached engine-family
// entry regressed more than 25% in ns/op against the baseline document.
// With normalize, every ratio is first divided by the median ratio, so a
// uniformly faster or slower machine cancels out and only *relative*
// regressions (one benchmark moving against the rest) trip the gate —
// the mode CI uses, since hosted runners are not the baseline machine.
// It first checks that the run covers the baseline.
func compareBaseline(log io.Writer, outPath, basePath string, normalize bool) error {
	if outPath == "-" {
		return fmt.Errorf("-compare needs a file output")
	}
	doc, err := loadOutput(outPath)
	if err != nil {
		return err
	}
	base, err := loadOutput(basePath)
	if err != nil {
		return err
	}
	if err := covers(doc, base); err != nil {
		return fmt.Errorf("%s does not cover baseline %s: %w", outPath, basePath, err)
	}
	baseline := make(map[string]Entry)
	for _, be := range base.Entries {
		if be.Cache == "off" {
			baseline[be.Name] = be
		}
	}
	type pair struct {
		name  string
		ratio float64
		base  float64
		now   float64
	}
	var pairs []pair
	for _, e := range doc.Entries {
		if e.Cache != "off" || !engineFamilies[e.Family] {
			continue
		}
		be, ok := baseline[e.Name]
		if !ok || be.NsPerOp <= 0 || e.NsPerOp <= 0 {
			continue
		}
		pairs = append(pairs, pair{name: e.Name, ratio: e.NsPerOp / be.NsPerOp, base: be.NsPerOp, now: e.NsPerOp})
	}
	if len(pairs) == 0 {
		return fmt.Errorf("no comparable uncached engine entries between %s and %s", outPath, basePath)
	}
	scale := 1.0
	if normalize {
		ratios := make([]float64, len(pairs))
		for i, p := range pairs {
			ratios[i] = p.ratio
		}
		sort.Float64s(ratios)
		scale = ratios[len(ratios)/2]
		if len(ratios)%2 == 0 {
			scale = (ratios[len(ratios)/2-1] + ratios[len(ratios)/2]) / 2
		}
		fmt.Fprintf(log, "compare: normalizing by median machine-speed ratio %.2fx\n", scale)
	}
	var regressed []string
	for _, p := range pairs {
		ratio := p.ratio / scale
		status := "ok"
		if ratio > maxRegression {
			status = "REGRESSED"
			regressed = append(regressed, fmt.Sprintf("%s: %.0f ns -> %.0f ns (%.2fx)", p.name, p.base, p.now, ratio))
		}
		fmt.Fprintf(log, "  compare %-50s %6.2fx %s\n", p.name, ratio, status)
	}
	if len(regressed) > 0 {
		return fmt.Errorf("%d of %d engine benchmarks regressed >%d%%:\n  %s",
			len(regressed), len(pairs), int(maxRegression*100-100), strings.Join(regressed, "\n  "))
	}
	fmt.Fprintf(log, "compare: %d engine benchmarks within %d%% of baseline\n", len(pairs), int(maxRegression*100-100))
	return nil
}
