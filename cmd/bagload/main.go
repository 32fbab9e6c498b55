// Command bagload is the load lab's driver: it fires a seeded,
// open-loop request schedule (internal/load) at a bagcd daemon through
// pkg/bagclient and reports tail latency, shed rate, goodput, queue-wait
// versus service time, and cache economics — as JSON for the experiment
// ledger and as a human table.
//
// Usage:
//
//	bagload -selfhost [-sh-parallelism N] [-sh-shed-threshold F] ...
//	bagload -addr http://host:8080 ...
//	        [-seed N] [-rps R] [-duration 10s] [-arrival poisson|bursty]
//	        [-mix-pair W] [-mix-global W] [-mix-batch W] [-zipf-s S]
//	        [-corpus-items N] [-corpus-acyclic-frac F] [-corpus-cyclic-n N]
//	        [-request-timeout 10s] [-retries 0] [-json] [-out report.json]
//	        [-trace-sample N] [-trace-top K]
//
// Open-loop means the driver fires every event at its scheduled offset
// regardless of how many earlier requests are still outstanding: the
// arrival process never slows down to match a struggling server, so the
// measured tail is the tail a real client population would see.
//
// -trace-sample N attaches a deterministic W3C traceparent to one in N
// pair/global requests; the daemon returns each sampled request's
// phase-span tree in Report.Phases, and the K slowest (-trace-top) are
// embedded in the report's "traces" field — so a tail-latency number in
// the ledger comes with the span evidence (queue wait vs engine phases)
// that explains it.
//
// With -selfhost the tool boots the full bagcd serving stack in-process
// on a loopback port, making a whole experiment arm (daemon config +
// traffic + measurement) a single reproducible command. The same seed,
// spec, and daemon knobs reproduce the same schedule byte-for-byte.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"bagconsistency/internal/buildinfo"
	"bagconsistency/internal/load"
	"bagconsistency/internal/metrics"
	"bagconsistency/internal/service"
	"bagconsistency/pkg/bagclient"
)

type options struct {
	addr     string
	selfhost bool

	seed      int64
	rps       float64
	duration  time.Duration
	arrival   string
	mixPair   float64
	mixGlobal float64
	mixBatch  float64
	zipfS     float64
	batchSize int

	corpusItems       int
	corpusAcyclicFrac float64
	corpusSupport     int
	corpusCyclicN     int
	corpusCyclicMaxV  int64

	requestTimeout time.Duration
	retries        int

	traceSample int
	traceTop    int

	jsonOut bool
	outPath string
	label   string

	sh SelfhostConfig
}

func parseFlags(args []string) (*options, error) {
	opt := &options{}
	fs := flag.NewFlagSet("bagload", flag.ContinueOnError)
	fs.StringVar(&opt.addr, "addr", "", "base URL of a running bagcd (mutually exclusive with -selfhost)")
	fs.BoolVar(&opt.selfhost, "selfhost", false, "boot the bagcd serving stack in-process on a loopback port")

	fs.Int64Var(&opt.seed, "seed", 42, "seed for schedule and corpus generation")
	fs.Float64Var(&opt.rps, "rps", 50, "target mean request rate")
	fs.DurationVar(&opt.duration, "duration", 10*time.Second, "schedule horizon")
	fs.StringVar(&opt.arrival, "arrival", "poisson", "arrival process: poisson or bursty")
	fs.Float64Var(&opt.mixPair, "mix-pair", 1, "relative weight of pair checks")
	fs.Float64Var(&opt.mixGlobal, "mix-global", 2, "relative weight of global checks")
	fs.Float64Var(&opt.mixBatch, "mix-batch", 1, "relative weight of batch requests")
	fs.Float64Var(&opt.zipfS, "zipf-s", load.DefaultZipfS, "Zipf popularity exponent over the corpus")
	fs.IntVar(&opt.batchSize, "batch-size", load.DefaultBatchSize, "collections per batch request")

	fs.IntVar(&opt.corpusItems, "corpus-items", 50, "corpus size")
	fs.Float64Var(&opt.corpusAcyclicFrac, "corpus-acyclic-frac", load.DefaultAcyclicFrac, "fraction of acyclic-schema items")
	fs.IntVar(&opt.corpusSupport, "corpus-support", load.DefaultSupport, "support size of acyclic instances")
	fs.IntVar(&opt.corpusCyclicN, "corpus-cyclic-n", load.DefaultCyclicN, "3DCT dimension of cyclic instances")
	fs.Int64Var(&opt.corpusCyclicMaxV, "corpus-cyclic-maxv", load.DefaultCyclicMaxV, "3DCT margin bound of cyclic instances")

	fs.DurationVar(&opt.requestTimeout, "request-timeout", 10*time.Second, "per-request end-to-end budget (0 disables)")
	fs.IntVar(&opt.retries, "retries", 0, "client retries on 503 (0 keeps sheds visible)")

	fs.IntVar(&opt.traceSample, "trace-sample", 0, "attach a deterministic traceparent to 1 in N pair/global requests (0 disables)")
	fs.IntVar(&opt.traceTop, "trace-top", 5, "embed the K slowest sampled traces in the report")

	fs.BoolVar(&opt.jsonOut, "json", false, "write the JSON report to stdout instead of the table")
	fs.StringVar(&opt.outPath, "out", "", "also write the JSON report to this file")
	fs.StringVar(&opt.label, "label", "", "free-form run label recorded in the report")

	fs.IntVar(&opt.sh.Parallelism, "sh-parallelism", 4, "selfhost: checker parallelism / worker count")
	fs.IntVar(&opt.sh.QueueDepth, "sh-queue-depth", 64, "selfhost: admission queue depth")
	fs.IntVar(&opt.sh.CacheSize, "sh-cache-size", 1024, "selfhost: shared result cache entries")
	fs.Float64Var(&opt.sh.ShedThreshold, "sh-shed-threshold", service.DefaultShedThreshold, "selfhost: queue fraction past which expensive work sheds")
	fs.IntVar(&opt.sh.ExpensiveSupport, "sh-expensive-support", service.DefaultExpensiveSupport, "selfhost: support size classed expensive")
	fs.Int64Var(&opt.sh.MaxNodes, "sh-max-nodes", 10_000_000, "selfhost: integer-search node budget")
	fs.Float64Var(&opt.sh.MaxTimeoutMs, "sh-max-timeout-ms", 2000, "selfhost: server-side per-request timeout cap (ms)")
	fs.IntVar(&opt.sh.HotkeyK, "sh-hotkey-k", 256, "selfhost: hot-key sketch capacity (0 disables workload analytics)")

	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	return opt, opt.validate()
}

func (o *options) validate() error {
	if o.selfhost == (o.addr != "") {
		return fmt.Errorf("bagload: exactly one of -selfhost or -addr is required")
	}
	if _, err := load.ParseArrival(o.arrival); err != nil {
		return err
	}
	if o.traceSample < 0 {
		return fmt.Errorf("bagload: -trace-sample must be >= 0")
	}
	if o.traceTop < 0 {
		return fmt.Errorf("bagload: -trace-top must be >= 0")
	}
	if o.sh.HotkeyK < 0 {
		return fmt.Errorf("bagload: -sh-hotkey-k must be >= 0")
	}
	return nil
}

func main() {
	opt, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	rep, err := run(context.Background(), opt, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if err := emit(rep, opt, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if !rep.Conservation.ClientHolds {
		fmt.Fprintln(os.Stderr, "bagload: request-conservation invariant VIOLATED")
		os.Exit(1)
	}
}

func emit(rep *Report, opt *options, stdout io.Writer) error {
	if opt.jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			return err
		}
	} else {
		writeTable(stdout, rep)
	}
	if opt.outPath != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		return os.WriteFile(opt.outPath, append(data, '\n'), 0o644)
	}
	return nil
}

// run executes one load run end-to-end and returns the report. progress
// receives human status lines (the report itself goes to stdout).
func run(ctx context.Context, opt *options, progress io.Writer) (*Report, error) {
	arrival, err := load.ParseArrival(opt.arrival)
	if err != nil {
		return nil, err
	}
	corpus, err := load.BuildCorpus(load.CorpusSpec{
		Seed:        opt.seed,
		Items:       opt.corpusItems,
		AcyclicFrac: opt.corpusAcyclicFrac,
		Support:     opt.corpusSupport,
		CyclicN:     opt.corpusCyclicN,
		CyclicMaxV:  opt.corpusCyclicMaxV,
	})
	if err != nil {
		return nil, err
	}
	events, err := load.Schedule(load.Spec{
		Seed:      opt.seed,
		RPS:       opt.rps,
		Duration:  opt.duration,
		Arrival:   arrival,
		Mix:       load.Mix{Pair: opt.mixPair, Global: opt.mixGlobal, Batch: opt.mixBatch},
		ZipfS:     opt.zipfS,
		BatchSize: opt.batchSize,
	}, len(corpus))
	if err != nil {
		return nil, err
	}

	target := opt.addr
	var host *selfhost
	if opt.selfhost {
		host, err = bootSelfhost(opt.sh)
		if err != nil {
			return nil, err
		}
		target = host.baseURL
		defer func() {
			shutCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			host.shutdown(shutCtx)
		}()
	}
	cli, err := bagclient.New(target, bagclient.WithMaxRetries(opt.retries))
	if err != nil {
		return nil, err
	}
	if err := waitHealthy(ctx, cli, 5*time.Second); err != nil {
		return nil, err
	}

	fmt.Fprintf(progress, "bagload: %d events over %v at %g rps against %s\n",
		len(events), opt.duration, opt.rps, target)
	before, err := scrape(ctx, cli)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	results := drive(ctx, cli, buildPayloads(corpus), events, opt.requestTimeout, opt.seed, opt.traceSample)
	wall := time.Since(start).Seconds()

	// Quiesce before the closing scrape so the server-side conservation
	// invariant is decidable: after drain, every admitted request has
	// either completed or been discarded as abandoned.
	quiesced := false
	if host != nil {
		drainCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		err := host.drain(drainCtx)
		cancel()
		if err != nil {
			return nil, fmt.Errorf("bagload: drain: %w", err)
		}
		quiesced = true
	}
	after, err := scrape(ctx, cli)
	if err != nil {
		return nil, err
	}

	rep := aggregate(opt, arrival, events, results, wall, before, after, quiesced)
	rep.Config.Target = targetName(opt)
	// Best-effort workload scrape: an older daemon or one without
	// -hotkey-k 404s here, and the report simply omits the section.
	if ws, err := scrapeWorkload(ctx, cli); err == nil {
		rep.Workload = buildWorkloadReport(ws, corpus, events, results)
	}
	return rep, nil
}

func scrapeWorkload(ctx context.Context, cli *bagclient.Client) (*bagclient.WorkloadStatus, error) {
	wctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	return cli.Workload(wctx, workloadTopScrape)
}

func targetName(opt *options) string {
	if opt.selfhost {
		return "selfhost"
	}
	return opt.addr
}

func waitHealthy(ctx context.Context, cli *bagclient.Client, patience time.Duration) error {
	deadline := time.Now().Add(patience)
	for {
		hctx, cancel := context.WithTimeout(ctx, time.Second)
		_, err := cli.Health(hctx)
		cancel()
		if err == nil {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("bagload: target never became healthy: %w", err)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

func scrape(ctx context.Context, cli *bagclient.Client) (promSnapshot, error) {
	sctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	text, err := cli.Metrics(sctx)
	if err != nil {
		return nil, fmt.Errorf("bagload: scraping /metrics: %w", err)
	}
	return parsePromText(text), nil
}

func aggregate(opt *options, arrival load.Arrival, events []load.Event, results []fireResult, wall float64, before, after promSnapshot, quiesced bool) *Report {
	all := metrics.NewSample(len(results))
	perClass := map[string]*ClassStats{}
	classSamples := map[string]*metrics.Sample{}
	traffic := TrafficStats{Scheduled: len(events), Sent: len(results), WallSec: wall}
	for _, r := range results {
		name := r.class.String()
		cs := perClass[name]
		if cs == nil {
			cs = &ClassStats{}
			perClass[name] = cs
			classSamples[name] = metrics.NewSample(len(results))
		}
		cs.Sent++
		traffic.BatchLineErrs += r.lineErrs
		if r.late {
			traffic.LateFires++
		}
		switch r.outcome {
		case outcomeOK:
			traffic.OK++
			cs.OK++
			all.Observe(r.latency)
			classSamples[name].Observe(r.latency)
		case outcomeShed:
			traffic.Shed++
			cs.Shed++
		case outcomeFailed:
			traffic.Failed++
			cs.Failed++
		case outcomeTransport:
			traffic.Transport++
			cs.Transport++
		case outcomeTimeout:
			traffic.Timeout++
			cs.Timeout++
		}
	}
	if wall > 0 {
		traffic.OfferedRPS = float64(traffic.Sent) / wall
		traffic.GoodputRPS = float64(traffic.OK) / wall
	}
	if traffic.Sent > 0 {
		traffic.ShedRate = float64(traffic.Shed) / float64(traffic.Sent)
	}

	server := serverDelta(before, after)
	if hits, misses := server.CacheHits, server.CacheMisses; hits+misses > 0 {
		traffic.CacheHitRate = hits / (hits + misses)
	}
	traffic.CacheHitsDelta = server.CacheHits

	slack := traffic.Sent - (traffic.OK + traffic.Shed + traffic.Failed + traffic.Transport + traffic.Timeout)
	cons := Conservation{ClientHolds: slack == 0, ClientSlack: slack}
	if quiesced {
		completed := 0.0
		for _, v := range server.Completed {
			completed += v
		}
		serverSlack := server.Admitted - completed - server.Abandoned
		holds := serverSlack == 0
		cons.ServerHolds = &holds
		cons.ServerSlack = serverSlack
	}

	perClassOut := make(map[string]ClassStats, len(perClass))
	for name, cs := range perClass {
		cs.Latency = summarize(classSamples[name])
		perClassOut[name] = *cs
	}

	var shPtr *SelfhostConfig
	if opt.selfhost {
		sh := opt.sh
		sh.Admission = "hardness"
		shPtr = &sh
	}
	return &Report{
		Schema: ReportSchema,
		Label:  opt.label,
		Runner: buildinfo.Runner(),
		Config: RunConfig{
			Seed:              opt.seed,
			RPS:               opt.rps,
			DurationSec:       opt.duration.Seconds(),
			Arrival:           arrival.String(),
			MixPair:           opt.mixPair,
			MixGlobal:         opt.mixGlobal,
			MixBatch:          opt.mixBatch,
			ZipfS:             opt.zipfS,
			BatchSize:         opt.batchSize,
			RequestTimeoutMs:  msOf(opt.requestTimeout),
			Retries:           opt.retries,
			TraceSample:       opt.traceSample,
			CorpusItems:       opt.corpusItems,
			CorpusAcyclicFrac: opt.corpusAcyclicFrac,
			CorpusSupport:     opt.corpusSupport,
			CorpusCyclicN:     opt.corpusCyclicN,
			Selfhost:          shPtr,
		},
		Traffic:      traffic,
		Latency:      summarize(all),
		PerClass:     perClassOut,
		Server:       server,
		Conservation: cons,
		Traces:       capturedTraces(results, opt.traceTop),
	}
}

// serverDelta reduces the before/after scrape pair into the run's
// server-side story.
func serverDelta(before, after promSnapshot) *ServerStats {
	s := &ServerStats{
		Admitted:          before.delta(after, "bagcd_requests_admitted_total"),
		AdmittedCheap:     before.delta(after, `bagcd_load_admitted_total{class="cheap"}`),
		AdmittedExpensive: before.delta(after, `bagcd_load_admitted_total{class="expensive"}`),
		ShedQueueFull:     before.delta(after, `bagcd_load_shed_total{reason="queue_full"}`),
		ShedExpensive:     before.delta(after, `bagcd_load_shed_total{reason="predicted_expensive"}`),
		ShedDeadline:      before.delta(after, `bagcd_load_shed_total{reason="deadline_unmeetable"}`),
		Abandoned:         before.delta(after, "bagcd_requests_abandoned_total"),
		CacheHits:         before.delta(after, "bagcd_cache_hits_total"),
		CacheMisses:       before.delta(after, "bagcd_cache_misses_total"),
		CacheCoalesced:    before.delta(after, "bagcd_cache_coalesced_total"),
		CacheEvictions:    before.delta(after, "bagcd_cache_evictions_total"),
		ILPNodes:          before.delta(after, "bagcd_ilp_nodes_total"),
		Completed:         map[string]float64{},
		MeanQueueWaitMs:   map[string]float64{},
		MeanServiceMs:     map[string]float64{},
	}
	// Daemons that predate the reason labels export only the unlabeled
	// total; fold it in when the labeled counters are silent.
	if s.ShedQueueFull == 0 && s.ShedExpensive == 0 && s.ShedDeadline == 0 {
		s.ShedQueueFull = before.delta(after, "bagcd_requests_shed_total")
	}
	for _, outcome := range []string{"ok", "error", "cancelled"} {
		total := 0.0
		for _, kind := range []string{"global", "pair"} {
			total += before.delta(after, fmt.Sprintf(`bagcd_requests_total{kind=%q,outcome=%q}`, kind, outcome))
		}
		s.Completed[outcome] = total
	}
	for _, kind := range []string{"global", "pair"} {
		if n := before.delta(after, fmt.Sprintf(`bagcd_queue_wait_seconds_count{kind=%q}`, kind)); n > 0 {
			s.MeanQueueWaitMs[kind] = 1000 * before.delta(after, fmt.Sprintf(`bagcd_queue_wait_seconds_sum{kind=%q}`, kind)) / n
		}
		if n := before.delta(after, fmt.Sprintf(`bagcd_service_seconds_count{kind=%q}`, kind)); n > 0 {
			s.MeanServiceMs[kind] = 1000 * before.delta(after, fmt.Sprintf(`bagcd_service_seconds_sum{kind=%q}`, kind)) / n
		}
	}
	return s
}
