// Command bagcd is the bag-consistency network daemon: it serves the
// Atserias–Kolaitis decision procedures over HTTP with a bounded admission
// queue, load shedding, a process-wide shared result cache, Prometheus
// metrics, and graceful drain on SIGINT/SIGTERM.
//
// With -data-dir the shared cache becomes two-tier: results are written
// through to a persistent content-addressed store (see docs/STORAGE.md),
// so a restarted daemon serves previously computed fingerprints from
// disk with zero engine recomputation.
//
// Usage:
//
//	bagcd [-addr :8080] [-parallelism N] [-queue-depth N] [-cache-size N]
//	      [-data-dir DIR] [-store-segment-bytes N] [-store-sync]
//	      [-max-nodes N] [-default-timeout 0] [-max-timeout 60s]
//	      [-shed-threshold 0.5] [-expensive-support N]
//	      [-trace-slow-ms N] [-trace-ring N] [-log-format text|json]
//	      [-flightrec] [-flightrec-queue-frac F]
//	      [-flightrec-p99-budget D] [-flightrec-retain N]
//	      [-drain-timeout 30s] [-max-batch-lines N] [-version]
//
// Each cyclic instance's integer search runs on the worker that serves
// it, under a -max-nodes budget. The search covers only a schema's cyclic
// core: GYO strips the acyclic fringe, which is then composed back
// polynomially. Search volume is observable as bagcd_ilp_nodes_total,
// which counts searches that stop at the budget or a deadline as well as
// those that decide.
//
// Admission sheds by predicted hardness: each request's cost is
// classified at admission (schema acyclicity via the GYO reduction +
// instance size, above -expensive-support tuples), and once queue
// occupancy passes -shed-threshold, predicted-expensive requests shed
// with 503 while cheap ones keep flowing; requests whose deadline cannot
// be met by the estimated queue wait + service time shed immediately.
// See docs/SERVING.md "Admission control".
//
// Every request carrying a W3C traceparent header records a phase-span
// tree (queue wait, cache tiers, engine phases down to the ILP search)
// into a bounded ring served by GET /debug/traces, and returns the tree
// in Report.Phases. -trace-slow-ms N additionally traces every request
// and captures those slower than N ms (N=0 captures all) into a slow
// ring (/debug/traces?slow=1) — persisted to <data-dir>/slow_traces.ndjson
// when -data-dir is set. Access logs are structured (log/slog; request
// id = trace id); -log-format json switches them to JSON. See
// docs/OBSERVABILITY.md.
//
// -flightrec arms the overload flight recorder: when queue fill reaches
// -flightrec-queue-frac or windowed p99 crosses -flightrec-p99-budget,
// it captures a bounded CPU+heap profile plus the trace rings into
// <data-dir>/flightrec (rotated, -flightrec-retain kept). Its status is
// the flight_recorder section of GET /healthz.
//
// Endpoints (see docs/SERVING.md for wire formats):
//
//	POST /v1/check        global consistency of one collection
//	POST /v1/check/pair   pair consistency of a two-bag collection
//	POST /v1/batch        NDJSON streaming batch
//	GET  /healthz         liveness, queue and cache occupancy, flight recorder
//	GET  /metrics         Prometheus text exposition
//	GET  /debug/traces    recent request traces (?slow=1: slow captures)
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"bagconsistency/internal/buildinfo"
	"bagconsistency/internal/metrics"
	"bagconsistency/internal/service"
	"bagconsistency/internal/telemetry"
	"bagconsistency/internal/trace"
	"bagconsistency/pkg/bagconsist"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bagcd:", err)
		os.Exit(1)
	}
}

// options collects the daemon's flags.
type options struct {
	addr             string
	parallelism      int
	queueDepth       int
	cacheSize        int
	dataDir          string
	storeSegBytes    int64
	storeSync        bool
	maxNodes         int64
	defaultTimeout   time.Duration
	maxTimeout       time.Duration
	drainTimeout     time.Duration
	maxBatchLines    int
	maxBodyBytes     int64
	pprofAddr        string
	shedThreshold    float64
	expensiveSupport int
	traceSlowMs      int64
	traceRing        int
	logFormat        string
	flightrec        bool
	flightQueueFrac  float64
	flightP99Budget  time.Duration
	flightRetain     int
	flightCheck      time.Duration                    // trigger poll interval; no flag (tests speed it up)
	flightCooldown   time.Duration                    // capture spacing; no flag (tests shrink it)
	storeLogf        func(format string, args ...any) // recovery warnings; tests capture it
	accessLog        *slog.Logger                     // set by run(); tests may inject their own
	slow             *trace.SlowCapture               // built by buildServer when -trace-slow-ms >= 0
	flight           *telemetry.Recorder              // built by buildServer when -flightrec
}

func parseFlags(args []string, out io.Writer) (*options, bool, error) {
	fs := flag.NewFlagSet("bagcd", flag.ContinueOnError)
	opt := &options{}
	fs.StringVar(&opt.addr, "addr", ":8080", "listen address (host:port; port 0 picks a free port)")
	fs.IntVar(&opt.parallelism, "parallelism", 0, "worker pool size (0 = GOMAXPROCS)")
	fs.IntVar(&opt.queueDepth, "queue-depth", service.DefaultQueueDepth, "admission queue bound; beyond it requests shed with 503")
	fs.IntVar(&opt.cacheSize, "cache-size", 4096, "shared result cache entries (must be at least 1)")
	fs.StringVar(&opt.dataDir, "data-dir", "", "directory for the persistent result store (empty = RAM cache only)")
	fs.Int64Var(&opt.storeSegBytes, "store-segment-bytes", 0, "store segment rotation threshold (0 = 64 MiB default)")
	fs.BoolVar(&opt.storeSync, "store-sync", false, "fsync the store after every stored result")
	fs.Int64Var(&opt.maxNodes, "max-nodes", 10_000_000, "node budget for the integer search on cyclic schemas")
	fs.DurationVar(&opt.defaultTimeout, "default-timeout", 0, "compute budget for requests that set none (0 = unlimited)")
	fs.DurationVar(&opt.maxTimeout, "max-timeout", 60*time.Second, "cap on per-request compute budgets (0 = uncapped)")
	fs.DurationVar(&opt.drainTimeout, "drain-timeout", 30*time.Second, "how long to let in-flight requests finish on shutdown")
	fs.IntVar(&opt.maxBatchLines, "max-batch-lines", service.DefaultMaxBatchLines, "NDJSON lines accepted per /v1/batch request")
	fs.Int64Var(&opt.maxBodyBytes, "max-body-bytes", service.DefaultMaxBodyBytes, "request body size cap in bytes (raise for bulk bagcol instances)")
	fs.StringVar(&opt.pprofAddr, "pprof", "", "serve net/http/pprof on this separate address (e.g. 127.0.0.1:6060; empty = off)")
	fs.Float64Var(&opt.shedThreshold, "shed-threshold", service.DefaultShedThreshold, "queue-occupancy fraction beyond which predicted-expensive requests shed")
	fs.IntVar(&opt.expensiveSupport, "expensive-support", service.DefaultExpensiveSupport, "total tuple support above which a request is classed expensive regardless of schema")
	fs.Int64Var(&opt.traceSlowMs, "trace-slow-ms", -1, "trace every request and capture those slower than N ms (0 captures all; -1 disables — traceparent-carrying requests are still traced)")
	fs.IntVar(&opt.traceRing, "trace-ring", service.DefaultTraceRingSize, "recent request traces kept for GET /debug/traces")
	fs.StringVar(&opt.logFormat, "log-format", "text", "structured log encoding: text or json")
	fs.BoolVar(&opt.flightrec, "flightrec", false, "arm the overload flight recorder: capture pprof + traces into <data-dir>/flightrec on queue or p99 pressure (requires -data-dir)")
	fs.Float64Var(&opt.flightQueueFrac, "flightrec-queue-frac", 0.9, "queue fill fraction that triggers a flight capture (0 disables the queue trigger)")
	fs.DurationVar(&opt.flightP99Budget, "flightrec-p99-budget", 0, "windowed p99 end-to-end latency that triggers a flight capture (0 disables the latency trigger)")
	fs.IntVar(&opt.flightRetain, "flightrec-retain", 8, "flight capture directories retained (oldest pruned first)")
	version := fs.Bool("version", false, "print version and exit")
	if err := fs.Parse(args); err != nil {
		return nil, false, err
	}
	// -version must exit before any validation or data-dir access: a
	// version probe on a broken config (or a locked store) still answers.
	if *version {
		fmt.Fprintln(out, "bagcd", buildinfo.String())
		return nil, true, nil
	}
	if err := opt.validate(); err != nil {
		return nil, false, err
	}
	return opt, false, nil
}

// validate rejects configurations that would otherwise surface as a
// late panic or a silently useless daemon, with a one-line error and a
// nonzero exit.
func (o *options) validate() error {
	if o.cacheSize < 1 {
		return fmt.Errorf("-cache-size must be at least 1, got %d (the daemon always serves through the result cache)", o.cacheSize)
	}
	if o.parallelism < 0 {
		return fmt.Errorf("-parallelism must be >= 0, got %d", o.parallelism)
	}
	if o.queueDepth < 1 {
		return fmt.Errorf("-queue-depth must be at least 1, got %d", o.queueDepth)
	}
	if o.maxNodes < 0 {
		return fmt.Errorf("-max-nodes must be >= 0, got %d", o.maxNodes)
	}
	if o.maxBatchLines < 1 {
		return fmt.Errorf("-max-batch-lines must be at least 1, got %d", o.maxBatchLines)
	}
	if o.maxBodyBytes < 1 {
		return fmt.Errorf("-max-body-bytes must be at least 1, got %d", o.maxBodyBytes)
	}
	if o.storeSegBytes < 0 {
		return fmt.Errorf("-store-segment-bytes must be >= 0, got %d", o.storeSegBytes)
	}
	if o.defaultTimeout < 0 || o.maxTimeout < 0 || o.drainTimeout < 0 {
		return fmt.Errorf("timeouts must be >= 0")
	}
	if o.shedThreshold <= 0 || o.shedThreshold > 1 {
		return fmt.Errorf("-shed-threshold must be in (0, 1], got %g", o.shedThreshold)
	}
	if o.expensiveSupport < 1 {
		return fmt.Errorf("-expensive-support must be at least 1, got %d", o.expensiveSupport)
	}
	if o.traceSlowMs < -1 {
		return fmt.Errorf("-trace-slow-ms must be >= -1, got %d", o.traceSlowMs)
	}
	if o.traceRing < 1 {
		return fmt.Errorf("-trace-ring must be at least 1, got %d", o.traceRing)
	}
	if o.logFormat != "text" && o.logFormat != "json" {
		return fmt.Errorf("-log-format must be text or json, got %q", o.logFormat)
	}
	if o.flightrec {
		if o.dataDir == "" {
			return fmt.Errorf("-flightrec needs -data-dir for its capture directory")
		}
		if o.flightQueueFrac < 0 || o.flightQueueFrac > 1 {
			return fmt.Errorf("-flightrec-queue-frac must be in [0, 1], got %g", o.flightQueueFrac)
		}
		if o.flightP99Budget < 0 {
			return fmt.Errorf("-flightrec-p99-budget must be >= 0, got %s", o.flightP99Budget)
		}
		if o.flightRetain < 1 {
			return fmt.Errorf("-flightrec-retain must be at least 1, got %d", o.flightRetain)
		}
	}
	return nil
}

// buildServer assembles the full serving stack — shared two-tier cache,
// persistent store, checker, admission service, metrics, HTTP handler —
// exactly as main runs it; the smoke tests boot the same stack. The
// returned store is non-nil when -data-dir was given; the caller closes
// it after drain.
func buildServer(opt *options) (*service.Service, http.Handler, *bagconsist.Store, error) {
	reg := metrics.NewRegistry()
	checkerOpts := []bagconsist.Option{bagconsist.WithMaxNodes(opt.maxNodes)}
	if opt.parallelism > 0 {
		checkerOpts = append(checkerOpts, bagconsist.WithParallelism(opt.parallelism))
	}
	checkerOpts = append(checkerOpts, bagconsist.WithCache(opt.cacheSize))
	var st *bagconsist.Store
	if opt.dataDir != "" {
		// An unusable directory is a clear startup error.
		popts := []bagconsist.PersistOption{
			bagconsist.WithSegmentBytes(opt.storeSegBytes),
			bagconsist.WithSyncOnPut(opt.storeSync),
		}
		if opt.storeLogf != nil {
			popts = append(popts, bagconsist.WithStoreLog(opt.storeLogf))
		}
		var err error
		st, err = bagconsist.OpenStore(opt.dataDir, popts...)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("data dir %q: %w", opt.dataDir, err)
		}
		checkerOpts = append(checkerOpts, bagconsist.WithStore(st))
	}
	fail := func(err error) (*service.Service, http.Handler, *bagconsist.Store, error) {
		if st != nil {
			st.Close()
		}
		return nil, nil, nil, err
	}
	if opt.flightrec && opt.flight == nil {
		var err error
		opt.flight, err = telemetry.NewRecorder(telemetry.RecorderConfig{
			Dir:           filepath.Join(opt.dataDir, "flightrec"),
			QueueFrac:     opt.flightQueueFrac,
			P99Budget:     opt.flightP99Budget,
			Retain:        opt.flightRetain,
			CheckInterval: opt.flightCheck,
			Cooldown:      opt.flightCooldown,
		})
		if err != nil {
			return fail(fmt.Errorf("flight recorder: %w", err))
		}
	}
	svc, err := service.New(service.Config{
		Checker:          bagconsist.New(checkerOpts...),
		QueueDepth:       opt.queueDepth,
		DefaultTimeout:   opt.defaultTimeout,
		MaxTimeout:       opt.maxTimeout,
		ShedThreshold:    opt.shedThreshold,
		ExpensiveSupport: opt.expensiveSupport,
		Metrics:          reg,
		Flight:           opt.flight,
	})
	if err != nil {
		return fail(err)
	}
	if opt.traceSlowMs >= 0 && opt.slow == nil {
		slowPath := ""
		if opt.dataDir != "" {
			slowPath = filepath.Join(opt.dataDir, "slow_traces.ndjson")
		}
		opt.slow, err = trace.NewSlowCapture(time.Duration(opt.traceSlowMs)*time.Millisecond, opt.traceRing, slowPath)
		if err != nil {
			return fail(fmt.Errorf("slow-trace capture: %w", err))
		}
	}
	// The trace ring is built here (not inside NewHandler) so the flight
	// recorder's Traces probe reads the very ring the handler fills.
	ring := trace.NewRing(opt.traceRing)
	handler, err := service.NewHandler(service.ServerConfig{
		Service:       svc,
		MaxBatchLines: opt.maxBatchLines,
		MaxBodyBytes:  opt.maxBodyBytes,
		Slow:          opt.slow,
		AccessLog:     opt.accessLog,
		Ring:          ring,
	})
	if err != nil {
		return fail(err)
	}
	if opt.flight != nil {
		opt.flight.Start(telemetry.RecorderProbes{
			QueueFill: svc.QueueFill,
			Traces: func() []*trace.Snapshot {
				snaps := ring.Snapshots()
				if opt.slow != nil {
					snaps = append(snaps, opt.slow.Ring().Snapshots()...)
				}
				return snaps
			},
			Logf: opt.storeLogf,
		})
	}
	return svc, handler, st, nil
}

func run(args []string, out io.Writer) error {
	opt, done, err := parseFlags(args, out)
	if err != nil || done {
		return err
	}
	var lh slog.Handler
	if opt.logFormat == "json" {
		lh = slog.NewJSONHandler(out, nil)
	} else {
		lh = slog.NewTextHandler(out, nil)
	}
	logger := slog.New(lh)
	if opt.storeLogf == nil {
		opt.storeLogf = func(format string, args ...any) {
			logger.Warn(fmt.Sprintf(format, args...))
		}
	}
	if opt.accessLog == nil {
		opt.accessLog = logger
	}

	svc, handler, st, err := buildServer(opt)
	if err != nil {
		return err
	}
	if opt.slow != nil {
		defer opt.slow.Close()
	}
	defer opt.flight.Close()
	if st != nil {
		defer func() {
			if cerr := st.Close(); cerr != nil {
				logger.Error("closing store", "error", cerr)
			}
		}()
		s := st.Stats()
		logger.Info("persistent store open",
			"dir", opt.dataDir, "records", s.Records, "segments", s.Segments, "disk_bytes", s.DiskBytes)
	}
	// Optional profiling endpoint, on its own listener so the debug
	// surface never shares a port (or handler namespace) with production
	// traffic. Off by default; bind it to localhost.
	if opt.pprofAddr != "" {
		pln, err := net.Listen("tcp", opt.pprofAddr)
		if err != nil {
			return fmt.Errorf("pprof listener %q: %w", opt.pprofAddr, err)
		}
		defer pln.Close()
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		logger.Info("pprof listening", "addr", pln.Addr().String())
		go func() {
			if err := http.Serve(pln, mux); err != nil && !errors.Is(err, net.ErrClosed) {
				logger.Error("pprof server", "error", err)
			}
		}()
	}

	ln, err := net.Listen("tcp", opt.addr)
	if err != nil {
		return err
	}
	// The resolved address is part of the contract: with port 0 it is the
	// only way callers (and the smoke test) learn where to connect. The
	// message keeps the "listening on <addr>" shape that tooling greps.
	version, commit := buildinfo.VersionCommit()
	logger.Info(fmt.Sprintf("listening on %s", ln.Addr()),
		"addr", ln.Addr().String(), "version", version, "commit", commit)

	srv := &http.Server{Handler: handler}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGINT, syscall.SIGTERM)
	select {
	case sig := <-sigCh:
		logger.Info("draining", "signal", sig.String(), "timeout", opt.drainTimeout.String())
	case err := <-serveErr:
		return err
	}

	// Drain order: stop the admission queue first so queued work finishes,
	// then shut the HTTP server down, which itself waits for in-flight
	// handlers (each holding a result already computed or a rejection).
	ctx, cancel := context.WithTimeout(context.Background(), opt.drainTimeout)
	defer cancel()
	drainErr := svc.Drain(ctx)
	if err := srv.Shutdown(ctx); err != nil {
		return fmt.Errorf("http shutdown: %w", err)
	}
	if drainErr != nil {
		return drainErr
	}
	if err := <-serveErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	logger.Info("drained, exiting")
	return nil
}
