// Command bench is the reproducible benchmark harness: it sweeps the
// generator families of internal/gen — acyclic vs cyclic schemas, pair
// instances, varying multiplicities — across the Flow/LP/ILP/Auto decision
// methods with and without the result cache, measures everything through
// the shared internal/harness loop (the same one cmd/experiments reports
// timings with), and writes the sweep as JSON so the repo's performance
// trajectory (BENCH_pr2.json and successors) is regenerable with one
// command.
//
// Every generator is seeded, so two runs on the same machine measure the
// same instances; the JSON orders entries deterministically.
//
// Usage:
//
//	bench [-quick] [-out BENCH_pr2.json] [-family pair,acyclic,...]
//	      [-prev OLD.json] [-compare BASELINE.json]
//
// -family takes a comma-separated subset of
// pair|acyclic|cyclic|cycliccore|cache|batch|restart|ingest (empty = all).
//
// The ingest family is the bulk-load acceptance measurement: the same
// instance decoded from text, JSON, bagcol bytes and an mmap'd bagcol
// file at 1e4..1e7 tuples, with tuples/sec and peak RSS per entry and
// Speedup records comparing each binary path against the text parser;
// `bench -family ingest -out BENCH_pr10.json` regenerates the committed
// BENCH_pr10.json.
//
// The cycliccore family is the parallel-solver acceptance measurement:
// near-acyclic schemas (a path with k chords) decided by the monolithic
// search sequentially and with the 4-worker work-stealing search, and by
// Auto (the decomposition-hybrid) with 4 workers; its Speedup entries
// compare each parallel config against the sequential monolith on the
// same instance.
//
// The restart family measures the persistence layer's headline number:
// cold compute vs a warm start from disk after a simulated process
// restart (fresh RAM tier, same data dir); `bench -family restart -out
// BENCH_pr4.json` regenerates the committed BENCH_pr4.json.
//
// -prev embeds engine-speedup entries into the output: every uncached
// entry present in both runs gains a Speedup record (variant "engine")
// with the previous engine's ns/op as cold and this run's as warm —
// how BENCH_pr5.json carries its before/after against the pre-columnar
// engine measured on the same machine and instances.
//
// -compare is the CI regression gate: after the sweep it compares this
// run's uncached pair/acyclic/cyclic entries against the committed
// baseline JSON and exits nonzero if any regresses by more than 25% in
// ns/op. Run baseline and candidate on the same machine class — the
// gate compares wall-clock numbers.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"

	"bagconsistency/internal/buildinfo"
	"bagconsistency/internal/gen"
	"bagconsistency/internal/harness"
	"bagconsistency/internal/hypergraph"
	"bagconsistency/pkg/bagconsist"
)

var ctx = context.Background()

func main() {
	quick := flag.Bool("quick", false, "shorter measurement floors and smaller sweeps")
	out := flag.String("out", "BENCH_pr2.json", "output JSON path (- for stdout)")
	family := flag.String("family", "", "comma-separated families to run (pair, acyclic, cyclic, cycliccore, cache, batch, restart, ingest; empty = all)")
	prev := flag.String("prev", "", "previous-engine BENCH json; embeds engine-speedup entries for matching uncached benchmarks")
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
	if *prev != "" {
		if err := embedEngineSpeedups(os.Stderr, *out, *prev); err != nil {
			fmt.Fprintln(os.Stderr, "bench: -prev:", err)
			os.Exit(1)
		}
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

// Speedup records the headline cached-repeat acceleration: the ratio of
// the uncached ns/op to the cache-hit ns/op for the same instance. For
// the restart family, "warm" means a warm start from disk: a fresh
// process-equivalent (empty RAM tier) serving from the persistent store.
type Speedup struct {
	Family   string  `json:"family"`
	Params   string  `json:"params"`
	Variant  string  `json:"variant"` // identical | permuted | renamed | restart
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
	type step struct {
		name string
		fn   func(io.Writer, *Output, harness.Options, bool) error
	}
	steps := []step{
		{"pair", benchPair},
		{"acyclic", benchAcyclic},
		{"cyclic", benchCyclic},
		{"cycliccore", benchCyclicCore},
		{"cache", benchCacheSpeedup},
		{"batch", benchBatch},
		{"restart", benchRestart},
		{"ingest", benchIngest},
	}
	want := map[string]bool{}
	if family != "" {
		for _, f := range strings.Split(family, ",") {
			f = strings.TrimSpace(f)
			if f != "" {
				want[f] = true
			}
		}
	}
	for _, s := range steps {
		if len(want) > 0 && !want[s.name] {
			continue
		}
		fmt.Fprintf(log, "== %s ==\n", s.name)
		if err := s.fn(log, doc, opts, quick); err != nil {
			return fmt.Errorf("%s: %w", s.name, err)
		}
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

// uncachedEntries indexes a document's cache=off entries by name.
func uncachedEntries(doc *Output) map[string]Entry {
	m := make(map[string]Entry)
	for _, e := range doc.Entries {
		if e.Cache == "off" {
			m[e.Name] = e
		}
	}
	return m
}

// embedEngineSpeedups rewrites outPath with one Speedup (variant
// "engine") per uncached entry present in both this run and the
// previous-engine document: cold = previous engine, warm = this one.
func embedEngineSpeedups(log io.Writer, outPath, prevPath string) error {
	if outPath == "-" {
		return fmt.Errorf("-prev needs a file output")
	}
	doc, err := loadOutput(outPath)
	if err != nil {
		return err
	}
	prev, err := loadOutput(prevPath)
	if err != nil {
		return err
	}
	old := uncachedEntries(prev)
	added := 0
	for _, e := range doc.Entries {
		if e.Cache != "off" {
			continue
		}
		pe, ok := old[e.Name]
		if !ok || pe.NsPerOp <= 0 || e.NsPerOp <= 0 {
			continue
		}
		sp := Speedup{
			Family: e.Family, Params: e.Name, Variant: "engine",
			ColdNs: pe.NsPerOp, WarmNs: e.NsPerOp,
			Speedup: pe.NsPerOp / e.NsPerOp,
		}
		doc.Speedups = append(doc.Speedups, sp)
		added++
		fmt.Fprintf(log, "  engine %-50s %6.1fx (%.0f ns -> %.0f ns, allocs %.0f -> %.0f)\n",
			e.Name, sp.Speedup, pe.NsPerOp, e.NsPerOp, pe.AllocsPerOp, e.AllocsPerOp)
	}
	if added == 0 {
		return fmt.Errorf("no matching uncached entries between %s and %s", outPath, prevPath)
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(outPath, append(data, '\n'), 0o644)
}

// engineFamilies are the uncached compute families the regression gate
// watches: the ones a data-plane change moves. Cache/batch/restart
// measure the serving tiers and have their own bars in the tests.
var engineFamilies = map[string]bool{"pair": true, "acyclic": true, "cyclic": true, "cycliccore": true, "ingest": true}

// maxRegression is the -compare failure threshold.
const maxRegression = 1.25

// compareBaseline fails (with a listing) when any uncached engine-family
// entry regressed more than 25% in ns/op against the baseline document.
// With normalize, every ratio is first divided by the median ratio, so a
// uniformly faster or slower machine cancels out and only *relative*
// regressions (one benchmark moving against the rest) trip the gate —
// the mode CI uses, since hosted runners are not the baseline machine.
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
	baseline := uncachedEntries(base)
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

func record(log io.Writer, doc *Output, e Entry, res harness.Result) {
	e.Iterations = res.Iterations
	e.NsPerOp = res.NsPerOp
	e.AllocsPerOp = res.AllocsPerOp
	e.BytesPerOp = res.BytesPerOp
	doc.Entries = append(doc.Entries, e)
	fmt.Fprintf(log, "  %-44s %12.0f ns/op %10.0f allocs/op\n", e.Name, e.NsPerOp, e.AllocsPerOp)
}

// benchPair sweeps two-bag consistency across the four Lemma 2 decision
// methods and cache modes.
func benchPair(log io.Writer, doc *Output, opts harness.Options, quick bool) error {
	supports := []int{64, 256, 1024}
	if quick {
		supports = []int{64, 256}
	}
	methods := []struct {
		name string
		m    bagconsist.Method
		max  int // largest support the method is benched at
	}{
		{"auto", bagconsist.Auto, 1 << 30},
		{"max-flow", bagconsist.Flow, 1 << 30},
		{"lp-relaxation", bagconsist.LP, 256},
		{"integer-program", bagconsist.ILP, 64},
	}
	for _, n := range supports {
		rng := rand.New(rand.NewSource(1))
		r, s, err := gen.RandomConsistentPair(rng, n, 1<<20, n/8+2)
		if err != nil {
			return err
		}
		for _, m := range methods {
			if n > m.max {
				continue
			}
			for _, cached := range []bool{false, true} {
				var copts []bagconsist.Option
				mode := "off"
				if cached {
					copts = append(copts, bagconsist.WithCache(64))
					mode = "warm"
				}
				checker := bagconsist.New(append(copts, bagconsist.WithMethod(m.m))...)
				fn := func() error {
					rep, err := checker.CheckPair(ctx, r, s)
					if err != nil {
						return err
					}
					if !rep.Consistent {
						return fmt.Errorf("pair inconsistent")
					}
					return nil
				}
				res, err := harness.Measure(fn, opts)
				if err != nil {
					return err
				}
				record(log, doc, Entry{
					Name:   fmt.Sprintf("pair/%s/cache=%s/support=%d", m.name, mode, n),
					Family: "pair", Method: m.name, Cache: mode,
					Params: fmt.Sprintf("support=%d", n),
				}, res)
			}
		}
	}
	return nil
}

// benchAcyclic sweeps global consistency on acyclic schemas (the
// polynomial side of the Theorem 4 dichotomy) across shape, size, and
// multiplicity scale.
func benchAcyclic(log io.Writer, doc *Output, opts harness.Options, quick bool) error {
	shapes := []struct {
		name string
		hg   func(int) *hypergraph.Hypergraph
		ms   []int
	}{
		{"path", func(m int) *hypergraph.Hypergraph { return hypergraph.Path(m + 1) }, []int{4, 16}},
		{"star", hypergraph.Star, []int{8, 32}},
	}
	mults := []int64{1 << 4, 1 << 16}
	if quick {
		mults = []int64{1 << 10}
	}
	for _, shape := range shapes {
		for _, m := range shape.ms {
			for _, mult := range mults {
				rng := rand.New(rand.NewSource(6))
				c, _, err := gen.RandomConsistent(rng, shape.hg(m), 64, mult, 4)
				if err != nil {
					return err
				}
				for _, mode := range []string{"off", "warm"} {
					var copts []bagconsist.Option
					if mode == "warm" {
						copts = append(copts, bagconsist.WithCache(64))
					}
					checker := bagconsist.New(copts...)
					fn := func() error {
						rep, err := checker.CheckGlobal(ctx, c)
						if err != nil {
							return err
						}
						if !rep.Consistent {
							return fmt.Errorf("acyclic instance inconsistent")
						}
						return nil
					}
					res, err := harness.Measure(fn, opts)
					if err != nil {
						return err
					}
					record(log, doc, Entry{
						Name:   fmt.Sprintf("acyclic/%s/cache=%s/m=%d,mult=%d", shape.name, mode, m, mult),
						Family: "acyclic", Method: "auto", Cache: mode,
						Params: fmt.Sprintf("shape=%s,m=%d,mult=%d", shape.name, m, mult),
					}, res)
				}
			}
		}
	}
	return nil
}

// benchCyclic sweeps the NP side: 3DCT triangle instances through the
// exact integer search, with and without LP pruning, cached and not.
func benchCyclic(log io.Writer, doc *Output, opts harness.Options, quick bool) error {
	ns := []int{2, 3, 4}
	if quick {
		ns = []int{2, 3}
	}
	for _, n := range ns {
		rng := rand.New(rand.NewSource(6))
		inst, err := gen.RandomThreeDCT(rng, n, 3)
		if err != nil {
			return err
		}
		c, err := inst.ToCollection()
		if err != nil {
			return err
		}
		for _, cfg := range []struct {
			method string
			copts  []bagconsist.Option
		}{
			{"integer-program", []bagconsist.Option{bagconsist.WithMaxNodes(50_000_000)}},
			{"integer-program+lp", []bagconsist.Option{bagconsist.WithMaxNodes(50_000_000), bagconsist.WithLPPruning(true)}},
		} {
			for _, mode := range []string{"off", "warm"} {
				copts := cfg.copts
				if mode == "warm" {
					copts = append(append([]bagconsist.Option{}, copts...), bagconsist.WithCache(64))
				}
				checker := bagconsist.New(copts...)
				fn := func() error {
					rep, err := checker.CheckGlobal(ctx, c)
					if err != nil {
						return err
					}
					if !rep.Consistent {
						return fmt.Errorf("interior 3DCT instance inconsistent")
					}
					return nil
				}
				res, err := harness.Measure(fn, opts)
				if err != nil {
					return err
				}
				record(log, doc, Entry{
					Name:   fmt.Sprintf("cyclic/3dct/%s/cache=%s/n=%d", cfg.method, mode, n),
					Family: "cyclic", Method: cfg.method, Cache: mode,
					Params: fmt.Sprintf("n=%d", n),
				}, res)
			}
		}
	}
	return nil
}

// benchCyclicCore sweeps distance-from-acyclicity: a long acyclic path
// with k chords (gen.NearAcyclicHypergraph), so the GYO core holds 2k+1
// edges while the fringe stays polynomial. Every instance is decided
// three ways — the sequential monolithic integer search and the
// work-stealing parallel search at 4 workers, both under WithMethod(ILP)
// so the monolith really searches the whole schema, and Auto at 4
// workers, which searches the core only (the decomposition-hybrid; the
// acyclic join-tree composition at k=0). The Auto arm keeps its
// historical name par4+decomp so baselines still match. Each parallel
// config gains a Speedup entry against the sequential monolith on the
// same instance.
func benchCyclicCore(log io.Writer, doc *Output, opts harness.Options, quick bool) error {
	m := 10
	ks := []int{0, 1, 2, 3}
	if quick {
		m = 8
		ks = []int{1, 2}
	}
	configs := []struct {
		name   string
		method bagconsist.Method
		copts  []bagconsist.Option
	}{
		{"seq", bagconsist.ILP, nil},
		{"par4", bagconsist.ILP, []bagconsist.Option{bagconsist.WithSolverParallelism(4)}},
		{"par4+decomp", bagconsist.Auto, []bagconsist.Option{bagconsist.WithSolverParallelism(4)}},
	}
	for _, k := range ks {
		rng := rand.New(rand.NewSource(7))
		h, err := gen.NearAcyclicHypergraph(m, k)
		if err != nil {
			return err
		}
		c, _, err := gen.RandomConsistent(rng, h, 6, 4, 2)
		if err != nil {
			return err
		}
		var seqNs float64
		for _, cfg := range configs {
			copts := append([]bagconsist.Option{
				bagconsist.WithMethod(cfg.method),
				bagconsist.WithMaxNodes(2_000_000_000),
				// The measurement targets the search, not witness
				// post-processing.
				bagconsist.WithWitnessMinimization(false),
			}, cfg.copts...)
			checker := bagconsist.New(copts...)
			fn := func() error {
				rep, err := checker.CheckGlobal(ctx, c)
				if err != nil {
					return err
				}
				if !rep.Consistent {
					return fmt.Errorf("generated-consistent instance judged inconsistent")
				}
				return nil
			}
			res, err := harness.Measure(fn, opts)
			if err != nil {
				return err
			}
			record(log, doc, Entry{
				Name:   fmt.Sprintf("cycliccore/%s/cache=off/m=%d,k=%d", cfg.name, m, k),
				Family: "cycliccore", Method: cfg.method.String(), Cache: "off",
				Params: fmt.Sprintf("m=%d,k=%d,solver=%s", m, k, cfg.name),
			}, res)
			if cfg.name == "seq" {
				seqNs = res.NsPerOp
				continue
			}
			sp := Speedup{
				Family: "cycliccore", Params: fmt.Sprintf("m=%d,k=%d", m, k),
				Variant: cfg.name,
				ColdNs:  seqNs, WarmNs: res.NsPerOp,
				Speedup: seqNs / res.NsPerOp,
			}
			doc.Speedups = append(doc.Speedups, sp)
			fmt.Fprintf(log, "  speedup %-36s %10.2fx (seq %.0f ns -> %.0f ns)\n",
				sp.Params+"/"+sp.Variant, sp.Speedup, sp.ColdNs, sp.WarmNs)
		}
	}
	return nil
}

// benchCacheSpeedup is the acceptance measurement: cold (uncached)
// CheckGlobal vs a warm cache hit on the same instance, plus the
// tuple-permuted and value-renamed variants that exercise the canonical
// fingerprint. The cyclic instance is where the cache pays for itself —
// a hit skips an NP-hard search.
func benchCacheSpeedup(log io.Writer, doc *Output, opts harness.Options, quick bool) error {
	type workload struct {
		family string
		params string
		coll   *bagconsist.Collection
	}
	var loads []workload

	// n=5 interior margins: a few thousand branch-and-bound nodes, so the
	// cold search dominates the fingerprint cost by orders of magnitude.
	rng := rand.New(rand.NewSource(9))
	inst, err := gen.RandomThreeDCT(rng, 5, 3)
	if err != nil {
		return err
	}
	cyc, err := inst.ToCollection()
	if err != nil {
		return err
	}
	loads = append(loads, workload{"cyclic-3dct", "n=5", cyc})

	acy, _, err := gen.RandomConsistent(rng, hypergraph.Path(9), 64, 1<<16, 4)
	if err != nil {
		return err
	}
	loads = append(loads, workload{"acyclic-path", "m=8", acy})

	for _, w := range loads {
		uncached := bagconsist.New(bagconsist.WithMaxNodes(50_000_000))
		cold, err := harness.Measure(func() error {
			_, err := uncached.CheckGlobal(ctx, w.coll)
			return err
		}, opts)
		if err != nil {
			return err
		}

		for _, variant := range []string{"identical", "permuted", "renamed"} {
			probe, err := variantOf(rng, w.coll, variant)
			if err != nil {
				return err
			}
			checker := bagconsist.New(bagconsist.WithCache(64), bagconsist.WithMaxNodes(50_000_000))
			if _, err := checker.CheckGlobal(ctx, w.coll); err != nil { // populate
				return err
			}
			hit := true
			warm, err := harness.Measure(func() error {
				rep, err := checker.CheckGlobal(ctx, probe)
				if err != nil {
					return err
				}
				if !rep.CacheHit {
					hit = false
				}
				return nil
			}, opts)
			if err != nil {
				return err
			}
			sp := Speedup{
				Family: w.family, Params: w.params, Variant: variant,
				ColdNs: cold.NsPerOp, WarmNs: warm.NsPerOp,
				Speedup:  cold.NsPerOp / warm.NsPerOp,
				CacheHit: hit,
			}
			doc.Speedups = append(doc.Speedups, sp)
			fmt.Fprintf(log, "  %-44s %10.1fx (cold %.0f ns -> warm %.0f ns, hit=%v)\n",
				w.family+"/"+variant, sp.Speedup, sp.ColdNs, sp.WarmNs, hit)
		}
	}
	return nil
}

// variantOf returns the instance itself, a tuple-permuted rebuild, or a
// per-attribute value-renamed copy.
func variantOf(rng *rand.Rand, c *bagconsist.Collection, variant string) (*bagconsist.Collection, error) {
	switch variant {
	case "identical":
		return c, nil
	case "permuted":
		bags := make([]*bagconsist.Bag, c.Len())
		for i, b := range c.Bags() {
			tuples := b.Tuples()
			rng.Shuffle(len(tuples), func(a, z int) { tuples[a], tuples[z] = tuples[z], tuples[a] })
			nb := bagconsist.NewBag(b.Schema())
			for _, tup := range tuples {
				if err := nb.AddTuple(tup, b.CountTuple(tup)); err != nil {
					return nil, err
				}
			}
			bags[i] = nb
		}
		return bagconsist.NewCollection(c.Hypergraph(), bags)
	case "renamed":
		rename := make(map[string]map[string]string)
		bags := make([]*bagconsist.Bag, c.Len())
		for i, b := range c.Bags() {
			attrs := b.Schema().Attrs()
			nb := bagconsist.NewBag(b.Schema())
			err := b.Each(func(tup bagconsist.Tuple, count int64) error {
				vals := tup.Values()
				for j := range vals {
					a := attrs[j]
					if rename[a] == nil {
						rename[a] = make(map[string]string)
					}
					n, ok := rename[a][vals[j]]
					if !ok {
						n = fmt.Sprintf("%s_r%d", a, len(rename[a]))
						rename[a][vals[j]] = n
					}
					vals[j] = n
				}
				return nb.Add(vals, count)
			})
			if err != nil {
				return nil, err
			}
			bags[i] = nb
		}
		return bagconsist.NewCollection(c.Hypergraph(), bags)
	}
	return nil, fmt.Errorf("unknown variant %q", variant)
}

// benchBatch measures the serving path: batches with heavy duplication
// through the worker pool, with and without a shared cache (the cached
// run coalesces duplicates in flight and hits on repeats).
func benchBatch(log io.Writer, doc *Output, opts harness.Options, quick bool) error {
	rng := rand.New(rand.NewSource(20))
	const distinct = 4
	batchSize := 32
	if quick {
		batchSize = 16
	}
	var pool []*bagconsist.Collection
	for i := 0; i < distinct; i++ {
		c, _, err := gen.RandomConsistent(rng, hypergraph.Star(8), 32, 1<<10, 4)
		if err != nil {
			return err
		}
		pool = append(pool, c)
	}
	instances := make([]*bagconsist.Collection, batchSize)
	for i := range instances {
		instances[i] = pool[i%distinct]
	}
	for _, workers := range []int{1, 4, 8} {
		for _, mode := range []string{"off", "warm"} {
			copts := []bagconsist.Option{bagconsist.WithParallelism(workers)}
			var sc *bagconsist.Cache
			if mode == "warm" {
				sc = bagconsist.NewCache(64)
				copts = append(copts, bagconsist.WithSharedCache(sc))
			}
			checker := bagconsist.New(copts...)
			fn := func() error {
				reports, err := checker.CheckBatch(ctx, instances)
				if err != nil {
					return err
				}
				for _, rep := range reports {
					if rep.Error != "" {
						return fmt.Errorf("batch slot failed: %s", rep.Error)
					}
				}
				return nil
			}
			res, err := harness.Measure(fn, opts)
			if err != nil {
				return err
			}
			e := Entry{
				Name:   fmt.Sprintf("batch/size=%d/cache=%s/workers=%d", batchSize, mode, workers),
				Family: "batch", Method: "auto", Cache: mode,
				Params: fmt.Sprintf("size=%d,distinct=%d,workers=%d", batchSize, distinct, workers),
			}
			if sc != nil {
				e.HitRate = sc.Stats().HitRate()
			}
			record(log, doc, e, res)
		}
	}
	return nil
}

// benchRestart measures the persistence acceptance number: a sweep of
// distinct instances computed cold (no cache at all) vs the same sweep
// served by a warm start — a fresh RAM tier, as after a process restart,
// over a data dir populated before the measurement. The warm sweep
// purges the RAM tier before every pass, so every measured query is a
// genuine disk hit (fingerprint + read + checksum + decode + promote),
// not a promoted RAM hit; the reported speedup is therefore the
// conservative one.
func benchRestart(log io.Writer, doc *Output, opts harness.Options, quick bool) error {
	dir, err := os.MkdirTemp("", "bagstore-bench-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	// The sweep mixes the NP side (3DCT integer searches, where a disk
	// hit saves the most) with the polynomial side (acyclic joins, where
	// the disk tier must still not be slower than recomputing by much —
	// the speedup shows where the break-even sits).
	rng := rand.New(rand.NewSource(33))
	var sweep []*bagconsist.Collection
	cyclicN := []int{3, 4}
	if !quick {
		cyclicN = []int{3, 4, 5}
	}
	for _, n := range cyclicN {
		inst, err := gen.RandomThreeDCT(rng, n, 3)
		if err != nil {
			return err
		}
		c, err := inst.ToCollection()
		if err != nil {
			return err
		}
		sweep = append(sweep, c)
	}
	for _, m := range []int{6, 10} {
		c, _, err := gen.RandomConsistent(rng, hypergraph.Path(m+1), 48, 1<<12, 4)
		if err != nil {
			return err
		}
		sweep = append(sweep, c)
	}
	params := fmt.Sprintf("instances=%d,cyclic=%d,acyclic=2", len(sweep), len(cyclicN))

	// Cold: no cache anywhere; every pass recomputes the whole sweep.
	coldChecker := bagconsist.New(bagconsist.WithMaxNodes(50_000_000))
	cold, err := harness.Measure(func() error {
		for _, c := range sweep {
			if _, err := coldChecker.CheckGlobal(ctx, c); err != nil {
				return err
			}
		}
		return nil
	}, opts)
	if err != nil {
		return err
	}
	record(log, doc, Entry{
		Name:   "restart/sweep/cache=off",
		Family: "restart", Method: "auto", Cache: "off", Params: params,
	}, cold)

	// Populate the store (unmeasured), then close it — the "shutdown".
	writer := bagconsist.New(bagconsist.WithPersistence(dir), bagconsist.WithMaxNodes(50_000_000))
	for _, c := range sweep {
		if _, err := writer.CheckGlobal(ctx, c); err != nil {
			return err
		}
	}
	if err := writer.Close(); err != nil {
		return err
	}

	// "Restart": reopen the store under a brand-new empty RAM tier.
	st, err := bagconsist.OpenStore(dir)
	if err != nil {
		return err
	}
	defer st.Close()
	ram := bagconsist.NewCache(1024)
	warmChecker := bagconsist.New(
		bagconsist.WithSharedCache(ram),
		bagconsist.WithStore(st),
		bagconsist.WithMaxNodes(50_000_000),
	)
	hitsBefore := st.Stats().Hits
	allHits := true
	warm, err := harness.Measure(func() error {
		// Empty the RAM tier so each pass measures disk serving, exactly
		// like the first requests after a restart.
		ram.Purge()
		for _, c := range sweep {
			rep, err := warmChecker.CheckGlobal(ctx, c)
			if err != nil {
				return err
			}
			if !rep.CacheHit {
				allHits = false
			}
		}
		return nil
	}, opts)
	if err != nil {
		return err
	}
	stats := st.Stats()
	if stats.Puts != 0 {
		return fmt.Errorf("restart sweep recomputed %d results (store writes during warm phase)", stats.Puts)
	}
	e := Entry{
		Name:   "restart/sweep/cache=warm-restart",
		Family: "restart", Method: "auto", Cache: "warm", Params: params,
	}
	record(log, doc, e, warm)

	sp := Speedup{
		Family: "restart", Params: params, Variant: "restart",
		ColdNs: cold.NsPerOp, WarmNs: warm.NsPerOp,
		Speedup:  cold.NsPerOp / warm.NsPerOp,
		CacheHit: allHits,
		DiskHits: stats.Hits - hitsBefore,
	}
	doc.Speedups = append(doc.Speedups, sp)
	fmt.Fprintf(log, "  %-44s %10.1fx (cold %.0f ns -> warm %.0f ns, disk hits=%d, all hits=%v)\n",
		"restart/sweep", sp.Speedup, sp.ColdNs, sp.WarmNs, sp.DiskHits, allHits)
	return nil
}
