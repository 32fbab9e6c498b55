// Package service is the request-serving core of the bagcd daemon: a
// bounded admission queue in front of the bagconsist Checker, a worker
// pool sized by the Checker's WithParallelism, hardness-aware load
// shedding (admission.go), per-request deadline propagation into Checker
// contexts, and graceful drain for zero-drop restarts.
//
// The layering is deliberate: the Checker is a pure decision engine with
// no notion of traffic, and this package owns everything traffic-shaped —
// admission, queuing, shedding, timeouts, instrumentation — so transports
// (the HTTP server here, anything else later) stay thin adapters.
package service

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"bagconsistency/internal/metrics"
	"bagconsistency/internal/telemetry"
	"bagconsistency/internal/trace"
	"bagconsistency/pkg/bagconsist"
)

// ErrOverloaded is returned when admission sheds a request without
// queuing it (see admission.go). Transports map it to 503 + Retry-After;
// clients back off and retry.
var ErrOverloaded = errors.New("service: overloaded, admission queue full")

// ErrDraining is returned once Drain has begun: the service finishes
// admitted work but accepts nothing new.
var ErrDraining = errors.New("service: draining, not accepting requests")

// Kind selects the Checker query a Request runs.
type Kind int

const (
	// Global decides global consistency of the whole collection
	// (Checker.CheckGlobal) — witness included when consistent.
	Global Kind = iota
	// Pair decides consistency of a two-bag collection by the Lemma 2
	// marginal test (Checker.CheckPair), which is never cached.
	Pair
)

// String names the kind as it appears in metric labels.
func (k Kind) String() string {
	switch k {
	case Global:
		return "global"
	case Pair:
		return "pair"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Request is the unit of admission: one consistency query.
type Request struct {
	// Kind selects the query; Global needs Collection, Pair needs R and S.
	Kind       Kind
	Collection *bagconsist.Collection
	R, S       *bagconsist.Bag
	// Timeout, when positive, bounds this request's compute regardless of
	// the caller's context: the worker derives a child context with this
	// deadline, so a slow integer search cannot hold a worker hostage.
	Timeout time.Duration
}

// Config parameterizes New.
type Config struct {
	// Checker runs the queries. Required. The worker pool is sized by
	// Checker.Parallelism().
	Checker *bagconsist.Checker
	// QueueDepth bounds the admission queue (requests admitted but not
	// yet started). 0 means DefaultQueueDepth; shedding starts beyond it.
	QueueDepth int
	// DefaultTimeout applies to requests that set no Timeout; 0 disables.
	DefaultTimeout time.Duration
	// MaxTimeout caps per-request Timeouts so a client cannot pin a
	// worker arbitrarily long; 0 disables the cap.
	MaxTimeout time.Duration
	// ShedThreshold is the queue-occupancy fraction (0, 1] beyond which
	// predicted-expensive requests shed; 0 means DefaultShedThreshold.
	ShedThreshold float64
	// ExpensiveSupport is the total-support size above which a request is
	// classed expensive regardless of schema structure; 0 means
	// DefaultExpensiveSupport.
	ExpensiveSupport int
	// Metrics receives request/latency/queue instrumentation, and is the
	// registry NewHandler serves on GET /metrics; nil gives the Service a
	// private one.
	Metrics *metrics.Registry
	// Workload, when set, receives per-fingerprint hot-key accounting:
	// every completed check (fingerprint + cache outcome + service time)
	// and every shed (fingerprinted directly, since sheds never reach
	// the engine). Nil disables workload analytics.
	Workload *telemetry.Workload
	// Flight, when set, is fed end-to-end latencies for its p99 trigger
	// window. The service never fires captures itself; the recorder's
	// own loop does, via the QueueFill probe.
	Flight *telemetry.Recorder
}

// DefaultQueueDepth bounds the admission queue when Config leaves it 0.
const DefaultQueueDepth = 256

// DefaultShedThreshold is the queue-occupancy fraction at which
// admission starts shedding predicted-expensive work: half the queue is
// headroom reserved for the cheap majority.
const DefaultShedThreshold = 0.5

// Service runs consistency queries through a bounded queue and a fixed
// worker pool. Create with New, stop with Drain.
type Service struct {
	checker        *bagconsist.Checker
	queue          chan *task
	defaultTimeout time.Duration
	maxTimeout     time.Duration

	// Admission control (see admission.go).
	shedDepth        int // queue occupancy at which expensive work sheds
	expensiveSupport int
	workerCount      int
	estimates        [2]ewma // service-time estimator per Cost class

	// Telemetry (workload and flight optional; see Config). NewHandler
	// serves all three, so an HTTP layer never sees another registry,
	// sketch or recorder than the one the Service feeds.
	reg      *metrics.Registry
	workload *telemetry.Workload
	flight   *telemetry.Recorder

	mu       sync.RWMutex // guards draining flips vs. enqueues
	draining bool

	inflight atomic.Int64
	workers  sync.WaitGroup

	// Instrumentation (non-nil even without Config.Metrics, to keep the
	// hot path branch-light; they then live in the private registry).
	admitted      *metrics.Counter
	shed          *metrics.Counter
	rejected      *metrics.Counter // draining-time rejections
	abandoned     *metrics.Counter // admitted but discarded unstarted: caller gone
	outcomes      map[string]*metrics.Counter
	latencies     map[Kind]*metrics.Histogram // end-to-end: queue wait + service
	queueWait     map[Kind]*metrics.Histogram
	serviceTime   map[Kind]*metrics.Histogram
	shedReasons   map[string]*metrics.Counter
	admittedClass map[Cost]*metrics.Counter
	ilpNodes      *metrics.Counter // integer-search nodes across computed queries
}

type task struct {
	ctx      context.Context
	req      Request
	cost     Cost
	enqueued time.Time
	done     chan result
}

type result struct {
	rep *bagconsist.Report
	err error
}

// New starts the worker pool and returns the serving core.
func New(cfg Config) (*Service, error) {
	if cfg.Checker == nil {
		return nil, errors.New("service: Config.Checker is required")
	}
	depth := cfg.QueueDepth
	if depth <= 0 {
		depth = DefaultQueueDepth
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	threshold := cfg.ShedThreshold
	if threshold <= 0 {
		threshold = DefaultShedThreshold
	}
	if threshold > 1 {
		return nil, fmt.Errorf("service: Config.ShedThreshold must be in (0, 1], got %g", cfg.ShedThreshold)
	}
	shedDepth := int(threshold * float64(depth))
	if shedDepth < 1 {
		shedDepth = 1
	}
	expensiveSupport := cfg.ExpensiveSupport
	if expensiveSupport <= 0 {
		expensiveSupport = DefaultExpensiveSupport
	}
	s := &Service{
		checker:          cfg.Checker,
		queue:            make(chan *task, depth),
		defaultTimeout:   cfg.DefaultTimeout,
		maxTimeout:       cfg.MaxTimeout,
		shedDepth:        shedDepth,
		expensiveSupport: expensiveSupport,
		workerCount:      cfg.Checker.Parallelism(),
		reg:              reg,
		workload:         cfg.Workload,
		flight:           cfg.Flight,
		admitted:         reg.Counter("bagcd_requests_admitted_total", "", "Requests admitted to the queue."),
		shed:             reg.Counter("bagcd_requests_shed_total", "", "Requests shed before admission, any reason."),
		rejected:         reg.Counter("bagcd_requests_rejected_draining_total", "", "Requests rejected because the service was draining."),
		abandoned:        reg.Counter("bagcd_requests_abandoned_total", "", "Admitted requests discarded unstarted because the caller had already gone; with bagcd_requests_total these partition bagcd_requests_admitted_total."),
		outcomes:         make(map[string]*metrics.Counter),
		latencies:        make(map[Kind]*metrics.Histogram),
		queueWait:        make(map[Kind]*metrics.Histogram),
		serviceTime:      make(map[Kind]*metrics.Histogram),
		shedReasons:      make(map[string]*metrics.Counter),
		admittedClass:    make(map[Cost]*metrics.Counter),
		ilpNodes:         reg.Counter("bagcd_ilp_nodes_total", "", "Integer-search nodes expanded by computed (non-cache-hit) queries."),
	}
	for _, kind := range []Kind{Global, Pair} {
		for _, outcome := range []string{"ok", "error", "cancelled"} {
			labels := fmt.Sprintf(`kind=%q,outcome=%q`, kind, outcome)
			s.outcomes[kind.String()+"/"+outcome] = reg.Counter("bagcd_requests_total", labels,
				"Completed requests by kind and outcome.")
		}
		kindLabel := fmt.Sprintf(`kind=%q`, kind)
		s.latencies[kind] = reg.Histogram("bagcd_request_seconds", kindLabel,
			"End-to-end request latency by kind (queue wait + service).", metrics.DefaultLatencyBuckets)
		s.queueWait[kind] = reg.Histogram("bagcd_queue_wait_seconds", kindLabel,
			"Time spent waiting in the admission queue before a worker picked the request up.", metrics.DefaultLatencyBuckets)
		s.serviceTime[kind] = reg.Histogram("bagcd_service_seconds", kindLabel,
			"Pure compute time by kind, excluding queue wait.", metrics.DefaultLatencyBuckets)
	}
	for _, reason := range []string{shedQueueFull, shedExpensive, shedDeadline} {
		s.shedReasons[reason] = reg.Counter("bagcd_load_shed_total", fmt.Sprintf(`reason=%q`, reason),
			"Requests shed at admission by reason.")
	}
	for _, cost := range []Cost{CostCheap, CostExpensive} {
		s.admittedClass[cost] = reg.Counter("bagcd_load_admitted_total", fmt.Sprintf(`class=%q`, cost),
			"Requests admitted by predicted cost class.")
		c := cost
		reg.GaugeFunc("bagcd_load_est_service_seconds", fmt.Sprintf(`class=%q`, c),
			"EWMA service-time estimate per predicted cost class (deadline-aware admission input).",
			func() float64 { v, _ := s.estimates[c].value(); return v })
	}
	reg.GaugeFunc("bagcd_queue_depth", "", "Requests admitted and waiting for a worker.",
		func() float64 { return float64(len(s.queue)) })
	reg.GaugeFunc("bagcd_queue_capacity", "", "Admission queue bound.",
		func() float64 { return float64(depth) })
	reg.GaugeFunc("bagcd_inflight", "", "Requests currently computing.",
		func() float64 { return float64(s.inflight.Load()) })

	s.workers.Add(s.workerCount)
	for range s.workerCount {
		go s.worker()
	}
	return s, nil
}

// EstimatedServiceSeconds returns the EWMA service-time estimate for a
// cost class and whether any completed request backs it.
func (s *Service) EstimatedServiceSeconds(c Cost) (float64, bool) {
	if c != CostCheap && c != CostExpensive {
		return 0, false
	}
	return s.estimates[c].value()
}

// Checker returns the engine this service runs queries through.
func (s *Service) Checker() *bagconsist.Checker { return s.checker }

// QueueDepth returns the number of admitted requests waiting for a worker.
func (s *Service) QueueDepth() int { return len(s.queue) }

// QueueCapacity returns the admission bound.
func (s *Service) QueueCapacity() int { return cap(s.queue) }

// Inflight returns the number of requests currently computing.
func (s *Service) Inflight() int { return int(s.inflight.Load()) }

// Draining reports whether Drain has begun.
func (s *Service) Draining() bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.draining
}

// Do admits the request, waits for its result, and returns the Report.
// It sheds with ErrOverloaded when admission refuses the request
// (predicted-expensive past the occupancy threshold, deadline-unmeetable,
// or queue full — never blocking on admission), rejects with ErrDraining
// during drain, and returns the context's error if the caller gives up while
// queued — the worker then discards the stale task without computing.
func (s *Service) Do(ctx context.Context, req Request) (*bagconsist.Report, error) {
	cost := classifyCost(req, s.expensiveSupport)
	t := &task{ctx: ctx, req: req, cost: cost, done: make(chan result, 1)}

	// Enqueue under the read lock so Drain's write lock linearizes
	// against every in-flight admission: after Drain flips the flag, no
	// later Do can touch the (about to be closed) queue.
	s.mu.RLock()
	if s.draining {
		s.mu.RUnlock()
		s.rejected.Inc()
		trace.SpanFromContext(ctx).SetAttr("rejected", "draining")
		return nil, ErrDraining
	}
	if reason := s.admissionVeto(ctx, cost); reason != "" {
		s.mu.RUnlock()
		s.shed.Inc()
		s.shedReasons[reason].Inc()
		trace.SpanFromContext(ctx).SetAttr("shed", reason)
		s.observeShed(req)
		return nil, ErrOverloaded
	}
	t.enqueued = time.Now()
	select {
	case s.queue <- t:
		s.mu.RUnlock()
		s.admitted.Inc()
		s.admittedClass[cost].Inc()
	default:
		s.mu.RUnlock()
		s.shed.Inc()
		s.shedReasons[shedQueueFull].Inc()
		trace.SpanFromContext(ctx).SetAttr("shed", shedQueueFull)
		s.observeShed(req)
		return nil, ErrOverloaded
	}

	select {
	case res := <-t.done:
		return res.rep, res.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// admissionVeto applies the pre-queue checks and returns
// the shed reason, or "" to admit. Both checks are O(1) over state the
// service already tracks; the caller holds the read lock.
func (s *Service) admissionVeto(ctx context.Context, cost Cost) string {
	// Cost-based shedding: once the queue is past the occupancy
	// threshold the service is in overload, and admitting one more
	// integer search hurts every queued request behind it. Cheap work
	// keeps the remaining headroom.
	if cost == CostExpensive && len(s.queue) >= s.shedDepth {
		return shedExpensive
	}
	// Deadline-aware admission: when the caller's context deadline
	// cannot outlast the predicted queue wait plus the predicted service
	// time of this cost class, computing is pure waste — the caller will
	// have abandoned the result. Estimates are EWMAs of completed
	// requests; with no history the service admits (never shed blind).
	if deadline, ok := ctx.Deadline(); ok {
		est, haveEst := s.estimates[cost].value()
		meanAll, haveMean := s.meanServiceEstimate()
		if haveEst && haveMean {
			waitEst := float64(len(s.queue)) * meanAll / float64(s.workerCount)
			if time.Until(deadline).Seconds() < waitEst+est {
				return shedDeadline
			}
		}
	}
	return ""
}

// observeShed attributes an admission rejection to its hot key. Sheds
// never reach the engine's cached path, so the fingerprint is computed
// here — the public canonicalization fast path, no check involved.
// Called after the read lock is released; instances that cannot be
// fingerprinted (the engine would reject them anyway) are skipped.
func (s *Service) observeShed(req Request) {
	if s.workload == nil {
		return
	}
	s.workload.ObserveShed(requestFingerprint(req))
}

// requestFingerprint names the request's instance canonically, or ""
// when it cannot be fingerprinted.
func requestFingerprint(req Request) string {
	var fp string
	switch req.Kind {
	case Pair:
		fp, _ = bagconsist.FingerprintPair(req.R, req.S)
	default:
		fp, _ = bagconsist.FingerprintCollection(req.Collection)
	}
	return fp
}

// QueueFill returns queue depth over capacity in [0, 1] — the flight
// recorder's queue-pressure probe.
func (s *Service) QueueFill() float64 {
	return float64(len(s.queue)) / float64(cap(s.queue))
}

// meanServiceEstimate blends the per-class EWMAs into one queue-drain
// rate estimate, weighting classes equally when both have history.
func (s *Service) meanServiceEstimate() (float64, bool) {
	cheap, okC := s.estimates[CostCheap].value()
	exp, okE := s.estimates[CostExpensive].value()
	switch {
	case okC && okE:
		return (cheap + exp) / 2, true
	case okC:
		return cheap, true
	case okE:
		return exp, true
	default:
		return 0, false
	}
}

func (s *Service) worker() {
	defer s.workers.Done()
	for t := range s.queue {
		s.run(t)
	}
}

func (s *Service) run(t *task) {
	// The caller may have abandoned the task while it sat queued; skip
	// dead work before it costs anything. Counted separately so that
	// admitted = completed (bagcd_requests_total) + abandoned stays an
	// exact conservation invariant after drain.
	if err := t.ctx.Err(); err != nil {
		s.abandoned.Inc()
		trace.SpanFromContext(t.ctx).SetAttr("abandoned", "true")
		t.done <- result{nil, err}
		return
	}
	ctx := t.ctx
	// The capture carrier lets the cache layer's observer hand the
	// canonical fingerprint (computed anyway for the cache key) back to
	// this worker — per-key accounting without re-canonicalizing. Only
	// global checks reach the cache.
	var capture *telemetry.Capture
	if s.workload != nil {
		ctx, capture = telemetry.WithCapture(ctx)
	}
	timeout := t.req.Timeout
	if timeout <= 0 {
		timeout = s.defaultTimeout
	}
	if s.maxTimeout > 0 && (timeout <= 0 || timeout > s.maxTimeout) {
		timeout = s.maxTimeout
	}
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}

	s.inflight.Add(1)
	start := time.Now()
	wait := start.Sub(t.enqueued)
	// The wait span is backdated to the enqueue instant, so a traced
	// request's tree accounts for queue time before any engine phase.
	trace.Record(ctx, trace.SpanQueueWait, t.enqueued).SetAttr("cost", t.cost.String())
	var rep *bagconsist.Report
	var err error
	switch t.req.Kind {
	case Pair:
		rep, err = s.checker.CheckPair(ctx, t.req.R, t.req.S)
	default:
		rep, err = s.checker.CheckGlobal(ctx, t.req.Collection)
	}
	elapsed := time.Since(start)
	s.inflight.Add(-1)

	s.queueWait[t.req.Kind].Observe(wait.Seconds())
	s.serviceTime[t.req.Kind].Observe(elapsed.Seconds())
	s.latencies[t.req.Kind].Observe((wait + elapsed).Seconds())
	s.estimates[t.cost].observe(elapsed.Seconds())
	if err == nil {
		if capture != nil {
			if fp, hit, ok := capture.Get(); ok {
				s.workload.ObserveCheck(fp, hit, elapsed)
			} else if fp := requestFingerprint(t.req); fp != "" {
				// No observer ran: a pair request, which never reaches the
				// cache, or a cacheless checker. Fingerprint directly; for
				// pair requests this is their only fingerprint, kept for
				// the hot-key sketch.
				s.workload.ObserveCheck(fp, rep != nil && rep.CacheHit, elapsed)
			}
		}
	}
	s.flight.Observe((wait + elapsed).Seconds())
	// A search that stops at its node budget or its deadline returns no
	// Report; its error carries the nodes it explored.
	var stopped interface{ Nodes() int64 }
	switch {
	case rep != nil && !rep.CacheHit && rep.Nodes > 0:
		s.ilpNodes.Add(uint64(rep.Nodes))
	case errors.As(err, &stopped) && stopped.Nodes() > 0:
		s.ilpNodes.Add(uint64(stopped.Nodes()))
	}
	outcome := "ok"
	switch {
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		outcome = "cancelled"
	case err != nil:
		outcome = "error"
	}
	if c, ok := s.outcomes[t.req.Kind.String()+"/"+outcome]; ok {
		c.Inc()
	}
	t.done <- result{rep, err}
}

// Drain stops admission (subsequent Do calls fail with ErrDraining),
// lets the workers finish every queued and in-flight request, and returns
// when the pool has fully stopped or ctx expires. Idempotent: later calls
// just wait. This is the SIGTERM path — in-flight work completes, nothing
// new starts, the process exits clean.
func (s *Service) Drain(ctx context.Context) error {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		// Safe to close: every enqueue holds the read lock and re-checks
		// the flag, so no send can race this close.
		close(s.queue)
	}
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.workers.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("service: drain incomplete: %w", ctx.Err())
	}
}
