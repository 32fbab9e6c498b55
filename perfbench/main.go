// Command perfbench is the repository benchmark: it starts the real
// bagcd binary, drives it in a closed loop over one keep-alive connection
// per CPU with seeded inputs, checks every answer off the clock, and
// prints the end-to-end metrics (-trace 0) or the per-layer metrics of a
// separate traced pass (-trace 1). The last line of standard output is
// one JSON object: {"correct", "attempted", "failed", "metrics"}.
//
// Run it through run.sh from the repository root, which builds bagcd and
// this generator from the same checkout:
//
//	bash perfbench/run.sh --workload hot-repeat --seed 1 --seconds 20 --trace 0
//	bash perfbench/run.sh --workload cyclic-fresh --seed 1000 --seconds 20 --steady 10
//
// With -steady N it runs the workload N times, seeds seed..seed+N-1, and
// prints each metric's median, quartiles and (Q3-Q1)/median.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	root     string
	daemon   string
	steady   int
	out      string
}

func main() {
	var cfg config
	flag.StringVar(&cfg.workload, "workload", "", "workload name: hot-repeat, acyclic-fresh or cyclic-fresh")
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed; the same seed sends byte-identical bodies in the same order")
	flag.IntVar(&cfg.seconds, "seconds", 20, "length of the timed phase")
	flag.IntVar(&cfg.trace, "trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced pass")
	flag.StringVar(&cfg.root, "root", ".", "repository root; builds, data directories and span dumps go to <root>/.bench_build")
	flag.StringVar(&cfg.daemon, "daemon", "", "bagcd binary to start")
	flag.IntVar(&cfg.steady, "steady", 0, "run the workload this many times (seeds seed, seed+1, ...) and print each metric's spread")
	flag.StringVar(&cfg.out, "out", "", "with -steady: also write the runs and their summary to this JSON file")
	vet := flag.String("vet-cyclic", "", "search every cyclic-fresh master instance and write the rejected list to this file")
	refServer := flag.Bool("ref-server", false, "serve the reference computation (the benchmark starts this itself)")
	flag.Parse()
	if *refServer {
		if err := serveRef(); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	var err error
	if *vet != "" {
		err = vetCyclic(*vet)
	} else if cfg.steady > 0 {
		err = steady(ctx, cfg)
	} else {
		err = runOnce(ctx, cfg)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// result is the last line of a run.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// clients is the number of closed-loop connections: one per CPU, as many
// as the daemon's default workers, so the stack itself does not queue.
var clients = runtime.NumCPU()

// setupRuns is how many times a run starts the daemon and warms it;
// setup_s is the median.
const setupRuns = 9

// traceEvery is the traceparent sampling interval of the traced pass. It
// is prime, so the sample cycles through the fresh workloads' fixed
// family and perturbation patterns (periods 2, 8 and 10) instead of
// landing on one phase of them.
const traceEvery = 31

// replayLimit caps the in-process replay's request count.
const replayLimit = 4000

func runOnce(ctx context.Context, cfg config) error {
	wl, err := workloadByName(cfg.workload)
	if err != nil {
		return err
	}
	if cfg.daemon == "" {
		return fmt.Errorf("-daemon is required (run through perfbench/run.sh)")
	}
	if cfg.seconds < 1 || (cfg.trace != 0 && cfg.trace != 1) {
		return fmt.Errorf("bad -seconds %d or -trace %d", cfg.seconds, cfg.trace)
	}
	work := filepath.Join(cfg.root, ".bench_build", "run", fmt.Sprintf("%s-s%d-%d", wl.name, cfg.seed, os.Getpid()))
	if err := os.MkdirAll(work, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(work)

	genStart := time.Now()
	in, err := wl.build(cfg.seed, cfg.seconds)
	if err != nil {
		return fmt.Errorf("generating inputs: %w", err)
	}
	genSeconds := time.Since(genStart).Seconds()
	client := newClient(clients)
	defer client.CloseIdleConnections()
	ref, err := startReference(wl.refUnits, wl.refRate)
	if err != nil {
		return err
	}
	defer ref.stop()

	b := &bench{cfg: cfg, wl: wl, in: in, client: client, ref: ref, work: work}
	// Set-up, several times: start, first healthy /healthz, warm-up. The
	// middle set-up's daemon serves the timed phase; the others are
	// stopped at once, half before the timed phase and half after it, so
	// their median samples the machine across the run, not one second of
	// it.
	setups := make([]setup, 0, setupRuns)
	setUpOnly := func(i int) error {
		d, su, err := b.setUp(ctx, fmt.Sprintf("setup%d", i))
		if err != nil {
			return err
		}
		setups = append(setups, su)
		_, err = b.stop(d)
		return err
	}
	for i := range setupRuns / 2 {
		if err := setUpOnly(i); err != nil {
			return err
		}
	}
	d, su, err := b.setUp(ctx, "timed")
	if err != nil {
		return err
	}
	setups = append(setups, su)
	plain, err := b.timedPhase(ctx, d, nil, 0)
	rss, stopErr := b.stop(d)
	if err != nil {
		return err
	}
	if stopErr != nil {
		return stopErr
	}
	for i := setupRuns/2 + 1; i < setupRuns; i++ {
		if err := setUpOnly(i); err != nil {
			return err
		}
	}
	attempted, failed := len(plain.res.samples), plain.check.failed()
	b.report("timed", plain)

	res := result{Metrics: map[string]metric{}}
	prov := b.provenance(genSeconds, setups, plain)
	if cfg.trace == 0 {
		// Times are scaled to the reference machine speed (calib.go); the
		// figures as measured go to the provenance line. The p99 is a
		// per-layer metric (-trace 1): scaling corrects for how fast the
		// machine runs, not for the stalls a busy host puts into the tail.
		ss := plain.goodSlices()
		lat := plain.scaledLatencies()
		res.Metrics["throughput_rps"] = metric{scaledGoodput(ss), "1/s"}
		res.Metrics["latency_p50_ms"] = metric{quantile(lat, 0.50), "ms"}
		res.Metrics["setup_s"] = metric{scaledSetup(setups), "s"}
		res.Metrics["server_rss_peak_mb"] = metric{rss, "MiB"}
		raw := latencies(plain.res)
		secs := make([]float64, len(setups))
		for i, su := range setups {
			secs[i] = su.Seconds
		}
		prov["machine_speed"] = meanSpeed(ss)
		prov["load_slices"] = len(ss)
		prov["latency_samples"] = len(lat)
		prov["latency_p99_ms"] = quantile(lat, 0.99)
		prov["measured"] = map[string]float64{
			"throughput_rps": plain.goodput(),
			"latency_p50_ms": quantile(raw, 0.50),
			"latency_p99_ms": quantile(raw, 0.99),
			"latency_max_ms": raw[len(raw)-1],
			"setup_s":        median(secs),
		}
	} else {
		traced, layers, err := b.tracedPass(ctx, plain)
		if err != nil {
			return err
		}
		attempted += len(traced.res.samples)
		failed += traced.check.failed()
		layers["fail_frac"] = metric{float64(failed) / float64(max(attempted, 1)), "frac"}
		layers["latency_p99_ms"] = metric{quantile(plain.scaledLatencies(), 0.99), "ms"}
		res.Metrics = layers
		prov["traced_requests"] = len(traced.res.samples)
		prov["replayed_requests"] = b.replayed
		prov["phase_sampled_requests"] = traced.check.phaseReqs
		prov["spans_file"] = b.spansFile
	}
	res.Attempted, res.Failed = attempted, failed
	res.Correct = failed == 0 && attempted > 0
	if err := printJSON(map[string]any{"provenance": prov}); err != nil {
		return err
	}
	if err := printJSON(res); err != nil {
		return err
	}
	if !res.Correct {
		return fmt.Errorf("%d of %d answers failed the check", failed, attempted)
	}
	return nil
}

func printJSON(v any) error {
	line, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Println(string(line))
	return err
}

// bench holds one run's shared state.
type bench struct {
	cfg       config
	wl        workload
	in        *inputs
	client    *http.Client
	ref       *reference
	work      string
	replayed  int
	spansFile string
}

// phase is one checked closed-loop phase.
type phase struct {
	res    *phaseResult
	check  *verdict
	before promSnapshot
	after  promSnapshot
}

// goodput is correct answers per second over the phase.
func (p *phase) goodput() float64 {
	return float64(len(p.res.samples)-p.check.failed()) / p.res.elapsed.Seconds()
}

// stop stops the daemon and drops the client's idle connections to it.
func (b *bench) stop(d *daemon) (float64, error) {
	rss, err := d.stop()
	b.client.CloseIdleConnections()
	return rss, err
}

func (b *bench) daemonArgs(dir string) []string {
	if !b.wl.dataDir {
		return nil
	}
	return []string{"-data-dir", filepath.Join(b.work, dir)}
}

// setUp starts a daemon (with a fresh data directory) and warms it,
// returning the time from launch to the end of the warm-up and the
// machine's speed just before and after.
func (b *bench) setUp(ctx context.Context, dir string) (*daemon, setup, error) {
	before, err := b.ref.speed()
	if err != nil {
		return nil, setup{}, err
	}
	start := time.Now()
	d, err := startDaemon(b.cfg.daemon, b.daemonArgs(dir))
	if err != nil {
		return nil, setup{}, err
	}
	if err := d.waitHealthy(b.client); err != nil {
		return nil, setup{}, d.fail(err)
	}
	warm, err := closedLoop(ctx, loopConfig{
		base: d.base, client: b.client, in: b.in, seq: b.in.warm,
		clients: clients, duration: time.Hour,
	})
	if err != nil {
		return nil, setup{}, d.fail(err)
	}
	su := setup{Seconds: time.Since(start).Seconds()}
	after, err := b.ref.speed()
	if err != nil {
		return nil, setup{}, d.fail(err)
	}
	su.Speed = (before + after) / 2
	if v := checkPhase(b.in, b.in.warm, warm); v.failed() > 0 {
		return nil, setup{}, d.fail(fmt.Errorf("warm-up answers failed the check: %s", v.example))
	}
	return d, su, nil
}

// timedPhase runs the timed closed loop against a warmed daemon, scraping
// /metrics around it, and checks every answer afterwards.
func (b *bench) timedPhase(ctx context.Context, d *daemon, spans *spanLog, every int) (*phase, error) {
	before, err := scrape(ctx, b.client, d.base)
	if err != nil {
		return nil, err
	}
	runtime.GC() // every phase starts from the same collector state
	res, err := closedLoop(ctx, loopConfig{
		base: d.base, client: b.client, in: b.in, seq: b.in.timed,
		clients: clients, duration: time.Duration(b.cfg.seconds) * time.Second, ref: b.ref,
		traceEvery: every, spans: spans, wrap: b.in.wrap,
	})
	if err != nil {
		return nil, err
	}
	after, err := scrape(ctx, b.client, d.base)
	if err != nil {
		return nil, err
	}
	if len(res.samples) == 0 {
		return nil, fmt.Errorf("no request completed in the timed phase")
	}
	return &phase{res: res, check: checkPhase(b.in, b.in.timed, res), before: before, after: after}, nil
}

// report prints a human-readable line about a phase.
func (b *bench) report(name string, p *phase) {
	lat := latencies(p.res)
	fmt.Printf("%s %s: %d requests in %.2fs (%.1f correct/s), p50 %.3f ms, p99 %.3f ms, failed %d %v\n",
		b.wl.name, name, len(p.res.samples), p.res.elapsed.Seconds(), p.goodput(),
		quantile(lat, 0.5), quantile(lat, 0.99), p.check.failed(), p.check.reasons)
	if p.check.example != "" {
		fmt.Printf("%s %s: first failure: %.300s\n", b.wl.name, name, p.check.example)
	}
}

func latencies(r *phaseResult) []float64 {
	out := make([]float64, len(r.samples))
	for i, s := range r.samples {
		out[i] = float64(s.lat.Nanoseconds()) / 1e6
	}
	sort.Float64s(out)
	return out
}

// quantile is the nearest-rank q-quantile of sorted values.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

func median(vs []float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
