package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"time"

	"bagconsistency/internal/bagio"
	"bagconsistency/internal/buildinfo"
	"bagconsistency/internal/metrics"
	"bagconsistency/internal/telemetry"
	"bagconsistency/internal/trace"
	"bagconsistency/pkg/bagconsist"
)

// ServerConfig parameterizes NewHandler. Everything else the handler
// serves comes from the Service: its metrics registry and flight
// recorder, and the cache and store stats of its Checker.
type ServerConfig struct {
	// Service runs the queries. Required.
	Service *Service
	// MaxBodyBytes bounds request bodies; 0 means DefaultMaxBodyBytes.
	MaxBodyBytes int64
	// MaxBatchLines bounds the number of NDJSON lines per /v1/batch
	// request; 0 means DefaultMaxBatchLines.
	MaxBatchLines int
	// Slow, when non-nil, receives every completed trace and keeps those
	// crossing its latency threshold (bagcd -trace-slow-ms). Setting it
	// traces every check/pair/batch request, so slow-query capture sees
	// everything; without it only requests carrying a W3C traceparent
	// header are traced.
	Slow *trace.SlowCapture
	// AccessLog, when non-nil, receives one structured entry per HTTP
	// request (request id = trace id).
	AccessLog *slog.Logger
	// Ring, when non-nil, is the ring behind GET /debug/traces, so the
	// caller can share it (bagcd hands the same ring to the flight
	// recorder's Traces probe). Nil gives the handler a private ring of
	// DefaultTraceRingSize entries.
	Ring *trace.Ring
}

const (
	// DefaultMaxBodyBytes bounds request bodies (16 MiB matches the text
	// parser's own line buffer ceiling).
	DefaultMaxBodyBytes = 16 << 20
	// DefaultRetryAfter is the shed-response retry hint.
	DefaultRetryAfter = 1 * time.Second
	// DefaultMaxBatchLines bounds NDJSON batch size per request.
	DefaultMaxBatchLines = 10_000
	// DefaultTraceRingSize bounds /debug/traces when no Ring is given.
	DefaultTraceRingSize = 128
)

// errorBody is the JSON error envelope of every non-2xx response.
type errorBody struct {
	Error string `json:"error"`
}

// BatchLine is one NDJSON line of a /v1/batch response: the input line's
// index and name, and either its Report or a per-line error. Lines stream
// in input order. A line with Index -1 is a stream-level failure
// (truncation, body read error) rather than any input line's result.
type BatchLine struct {
	Index  int                `json:"index"`
	Name   string             `json:"name,omitempty"`
	Report *bagconsist.Report `json:"report,omitempty"`
	Error  string             `json:"error,omitempty"`
}

// HealthStatus is the GET /healthz body.
type HealthStatus struct {
	Status        string  `json:"status"` // "ok" or "draining"
	Version       string  `json:"version"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	QueueDepth    int     `json:"queue_depth"`
	QueueCapacity int     `json:"queue_capacity"`
	Inflight      int     `json:"inflight"`
	// Cache is present when the daemon runs a shared result cache.
	Cache *bagconsist.CacheStats `json:"cache,omitempty"`
	// Store is present when the cache is backed by a persistent store
	// (-data-dir): the disk tier's occupancy and traffic.
	Store *bagconsist.StoreStats `json:"store,omitempty"`
	// FlightRecorder is present when the daemon runs the overload flight
	// recorder (-flightrec): its triggers and this process's captures.
	FlightRecorder *telemetry.RecorderStatus `json:"flight_recorder,omitempty"`
}

type server struct {
	svc           *Service
	maxBody       int64
	maxBatchLines int
	started       time.Time
	ring          *trace.Ring
	slow          *trace.SlowCapture
	access        *slog.Logger

	httpRequests func(path, code string) *metrics.Counter
}

// NewHandler builds the daemon's HTTP API over a Service:
//
//	POST /v1/check       decide global consistency of one collection
//	POST /v1/check/pair  decide pair consistency of a two-bag collection
//	POST /v1/batch       NDJSON stream: one collection per line in, one
//	                     BatchLine per line out, in input order
//	GET  /healthz        liveness, queue/cache occupancy, flight recorder
//	GET  /metrics        Prometheus text exposition
//
// Check bodies are any bagio format (JSON array, named-collection JSON
// object, or the line-oriented text format); batch lines are the JSON
// forms only. A full admission queue sheds with 503 + Retry-After.
func NewHandler(cfg ServerConfig) (http.Handler, error) {
	if cfg.Service == nil {
		return nil, errors.New("service: ServerConfig.Service is required")
	}
	s := &server{
		svc:           cfg.Service,
		maxBody:       cfg.MaxBodyBytes,
		maxBatchLines: cfg.MaxBatchLines,
		started:       time.Now(),
		ring:          cfg.Ring,
		slow:          cfg.Slow,
		access:        cfg.AccessLog,
	}
	if s.ring == nil {
		s.ring = trace.NewRing(DefaultTraceRingSize)
	}
	if s.maxBody <= 0 {
		s.maxBody = DefaultMaxBodyBytes
	}
	if s.maxBatchLines <= 0 {
		s.maxBatchLines = DefaultMaxBatchLines
	}
	reg := s.svc.reg
	s.httpRequests = func(path, code string) *metrics.Counter {
		return reg.Counter("bagcd_http_requests_total",
			fmt.Sprintf(`path=%q,code=%s`, path, strconv.Quote(code)),
			"HTTP requests by path and status code.")
	}
	version, commit := buildinfo.VersionCommit()
	reg.Gauge("bagcd_build_info", fmt.Sprintf(`version=%q,commit=%q`, version, commit),
		"Build metadata of the running binary; the value is always 1.").Set(1)
	ck := s.svc.Checker()
	if _, ok := ck.CacheStats(); ok {
		cacheStat := func() bagconsist.CacheStats { st, _ := ck.CacheStats(); return st }
		reg.CounterFunc("bagcd_cache_hits_total", "", "Shared result cache hits.",
			func() float64 { return float64(cacheStat().Hits) })
		reg.CounterFunc("bagcd_cache_misses_total", "", "Shared result cache misses.",
			func() float64 { return float64(cacheStat().Misses) })
		reg.CounterFunc("bagcd_cache_coalesced_total", "", "Queries coalesced onto an in-flight identical computation.",
			func() float64 { return float64(cacheStat().Coalesced) })
		reg.CounterFunc("bagcd_cache_evictions_total", "", "Shared result cache evictions.",
			func() float64 { return float64(cacheStat().Evictions) })
		reg.GaugeFunc("bagcd_cache_entries", "", "Shared result cache occupancy (entries).",
			func() float64 { return float64(cacheStat().Entries) })
		reg.GaugeFunc("bagcd_cache_capacity", "", "Shared result cache capacity (entries).",
			func() float64 { return float64(cacheStat().Capacity) })
		reg.GaugeFunc("bagcd_cache_bytes", "", "Approximate RAM footprint of the cached results.",
			func() float64 { return float64(cacheStat().Bytes) })
	}
	if _, ok := ck.StoreStats(); ok {
		storeStat := func() bagconsist.StoreStats { st, _ := ck.StoreStats(); return st }
		reg.GaugeFunc("bagcd_store_records", "", "Live records in the persistent result store.",
			func() float64 { return float64(storeStat().Records) })
		reg.GaugeFunc("bagcd_store_segments", "", "Segment files in the persistent result store.",
			func() float64 { return float64(storeStat().Segments) })
		reg.GaugeFunc("bagcd_store_disk_bytes", "", "Total on-disk size of the store's segment log.",
			func() float64 { return float64(storeStat().DiskBytes) })
		reg.GaugeFunc("bagcd_store_live_bytes", "", "On-disk bytes occupied by live records.",
			func() float64 { return float64(storeStat().LiveBytes) })
		reg.CounterFunc("bagcd_store_hits_total", "", "Disk-tier hits (results served without recomputation after a RAM miss).",
			func() float64 { return float64(storeStat().Hits) })
		reg.CounterFunc("bagcd_store_misses_total", "", "Disk-tier misses (results that had to be computed).",
			func() float64 { return float64(storeStat().Misses) })
		reg.CounterFunc("bagcd_store_puts_total", "", "Results written through to the persistent store.",
			func() float64 { return float64(storeStat().Puts) })
		reg.CounterFunc("bagcd_store_put_errors_total", "", "Write-through failures (durability lost for one result, query unaffected).",
			func() float64 { return float64(storeStat().PutErrors) })
		reg.CounterFunc("bagcd_store_corrupt_skipped_total", "", "Corrupt records skipped at open or dropped at read.",
			func() float64 { return float64(storeStat().CorruptSkipped) })
		reg.CounterFunc("bagcd_store_torn_truncations_total", "", "Torn tails repaired by truncation at open.",
			func() float64 { return float64(storeStat().TornTruncations) })
		reg.CounterFunc("bagcd_store_rotations_total", "", "Segment rotations.",
			func() float64 { return float64(storeStat().Rotations) })
		reg.CounterFunc("bagcd_store_compactions_total", "", "Log compactions.",
			func() float64 { return float64(storeStat().Compactions) })
	}

	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/check", s.instrument("/v1/check", true, func(w http.ResponseWriter, r *http.Request) int {
		return s.handleCheck(w, r, Global)
	}))
	mux.HandleFunc("POST /v1/check/pair", s.instrument("/v1/check/pair", true, func(w http.ResponseWriter, r *http.Request) int {
		return s.handleCheck(w, r, Pair)
	}))
	mux.HandleFunc("POST /v1/batch", s.instrument("/v1/batch", true, s.handleBatch))
	mux.HandleFunc("GET /healthz", s.instrument("/healthz", false, s.handleHealthz))
	mux.HandleFunc("GET /metrics", s.instrument("/metrics", false, s.handleMetrics))
	mux.HandleFunc("GET /debug/traces", s.instrument("/debug/traces", false, s.handleTraces))
	return mux, nil
}

// instrument adapts a status-returning handler, counts it, and owns the
// request's observability envelope: the trace root span (for traceable
// endpoints when the caller sent a traceparent or slow-query capture is
// on) and the structured access-log line, whose request id is the trace
// id.
func (s *server) instrument(path string, traceable bool, h func(http.ResponseWriter, *http.Request) int) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		var tr *trace.Trace
		id, parentSpan, hasParent := trace.ParseTraceparent(r.Header.Get("traceparent"))
		if traceable && (hasParent || s.slow != nil) {
			tr = trace.New(id, trace.SpanRequest) // zero id → fresh random one
			root := tr.Root()
			root.SetAttr("path", path)
			if hasParent {
				root.SetAttr("parent_span", parentSpan.String())
			}
			r = r.WithContext(trace.NewContext(r.Context(), tr))
		}
		code := h(w, r)
		s.httpRequests(path, strconv.Itoa(code)).Inc()
		var traceID string
		if tr != nil {
			root := tr.Root()
			root.SetAttr("status", strconv.Itoa(code))
			root.End()
			snap := tr.Snapshot()
			s.ring.Add(snap)
			s.slow.Offer(snap)
			traceID = snap.TraceID
		}
		if s.access != nil {
			if traceID == "" {
				if hasParent {
					traceID = id.String()
				} else {
					// Untraced requests still get a correlatable id.
					traceID = trace.NewID().String()
				}
			}
			s.access.LogAttrs(r.Context(), slog.LevelInfo, "request",
				slog.String("trace_id", traceID),
				slog.String("method", r.Method),
				slog.String("path", path),
				slog.Int("status", code),
				slog.Float64("duration_ms", float64(time.Since(start).Microseconds())/1000),
				slog.String("remote", r.RemoteAddr),
			)
		}
	}
}

// tracesBody is the GET /debug/traces response envelope.
type tracesBody struct {
	Traces []*trace.Snapshot `json:"traces"`
}

// handleTraces serves the bounded trace ring, newest first. ?slow=1
// selects the slow-query ring instead (requests beyond -trace-slow-ms).
func (s *server) handleTraces(w http.ResponseWriter, r *http.Request) int {
	ring := s.ring
	if r.URL.Query().Get("slow") == "1" {
		if s.slow == nil {
			return s.writeError(w, http.StatusNotFound, errors.New("slow-query capture disabled (-trace-slow-ms)"))
		}
		ring = s.slow.Ring()
	}
	snaps := ring.Snapshots()
	if snaps == nil {
		snaps = []*trace.Snapshot{}
	}
	return s.writeJSON(w, http.StatusOK, tracesBody{Traces: snaps})
}

func (s *server) writeJSON(w http.ResponseWriter, code int, v any) int {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
	return code
}

func (s *server) writeError(w http.ResponseWriter, code int, err error) int {
	if code == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", strconv.Itoa(int((DefaultRetryAfter+time.Second-1)/time.Second)))
	}
	return s.writeJSON(w, code, errorBody{Error: err.Error()})
}

// requestTimeout reads the optional per-request deadline (?timeout_ms=N).
func requestTimeout(r *http.Request) (time.Duration, error) {
	raw := r.URL.Query().Get("timeout_ms")
	if raw == "" {
		return 0, nil
	}
	ms, err := strconv.ParseInt(raw, 10, 64)
	if err != nil || ms < 0 {
		return 0, fmt.Errorf("bad timeout_ms %q", raw)
	}
	return time.Duration(ms) * time.Millisecond, nil
}

// buildRequest turns decoded bags into a service Request of the kind.
func buildRequest(kind Kind, bags []bagio.NamedBag, timeout time.Duration) (Request, error) {
	if kind == Pair {
		if len(bags) != 2 {
			return Request{}, fmt.Errorf("pair check needs exactly 2 bags, got %d", len(bags))
		}
		return Request{Kind: Pair, R: bags[0].Bag, S: bags[1].Bag, Timeout: timeout}, nil
	}
	coll, err := bagio.ToCollection(bags)
	if err != nil {
		return Request{}, err
	}
	return Request{Kind: Global, Collection: coll, Timeout: timeout}, nil
}

// errStatus maps a service/engine error to a response code. Everything the
// client caused (bad instance, bad timeout, its own cancellation) stays in
// 4xx; only shedding and drain are 503.
func errStatus(err error) int {
	switch {
	case errors.Is(err, ErrOverloaded), errors.Is(err, ErrDraining):
		return http.StatusServiceUnavailable
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return 499 // client closed request (nginx convention); never sent
	default:
		return http.StatusUnprocessableEntity
	}
}

// isColumnarRequest reports whether the client declared a bagcol body.
// (DecodeAny would sniff the magic anyway; the explicit Content-Type buys
// a strict decode — a malformed binary body fails with a bagcol error
// instead of falling through to the text parser's line errors.)
func isColumnarRequest(r *http.Request) bool {
	ct := r.Header.Get("Content-Type")
	if i := strings.IndexByte(ct, ';'); i >= 0 {
		ct = ct[:i]
	}
	return strings.TrimSpace(ct) == bagio.ContentTypeColumnar
}

func (s *server) handleCheck(w http.ResponseWriter, r *http.Request, kind Kind) int {
	timeout, err := requestTimeout(r)
	if err != nil {
		return s.writeError(w, http.StatusBadRequest, err)
	}
	_, decodeSpan := trace.Start(r.Context(), trace.SpanDecode)
	var bags []bagio.NamedBag
	if isColumnarRequest(r) {
		_, bags, err = bagio.DecodeColumnarReader(http.MaxBytesReader(w, r.Body, s.maxBody))
	} else {
		_, bags, err = bagio.DecodeAny(http.MaxBytesReader(w, r.Body, s.maxBody))
	}
	if err != nil {
		decodeSpan.End()
		return s.writeError(w, http.StatusBadRequest, err)
	}
	req, err := buildRequest(kind, bags, timeout)
	decodeSpan.End()
	if err != nil {
		return s.writeError(w, http.StatusBadRequest, err)
	}
	ctx, cancel := deadlineContext(r.Context(), timeout)
	defer cancel()
	rep, err := s.svc.Do(ctx, req)
	if err != nil {
		return s.writeError(w, errStatus(err), err)
	}
	return s.writeJSON(w, http.StatusOK, rep)
}

// deadlineContext turns a request's timeout into a context deadline that
// exists already at admission, making ?timeout_ms an end-to-end budget
// over HTTP (queue wait included) rather than a compute-only cap. This
// is what lets admission's deadline veto shed a request whose budget
// the predicted wait already exhausts, instead of queueing it to die.
func deadlineContext(parent context.Context, timeout time.Duration) (context.Context, context.CancelFunc) {
	if timeout <= 0 {
		return parent, func() {}
	}
	return context.WithTimeout(parent, timeout)
}

// handleBatch streams NDJSON: each request line is one collection in
// either JSON wire form; each response line is a BatchLine, emitted in
// input order as results complete. Admission is per line: a shed line
// carries the overload error in its BatchLine and the stream continues,
// because by the time a line is admitted the 200 header is already on the
// wire. Batch clients treat per-line errors exactly like CheckBatch's
// Report.Error slots.
func (s *server) handleBatch(w http.ResponseWriter, r *http.Request) int {
	timeout, err := requestTimeout(r)
	if err != nil {
		return s.writeError(w, http.StatusBadRequest, err)
	}
	if isColumnarRequest(r) {
		// The batch endpoint is line-oriented NDJSON; a binary columnar
		// body cannot be framed as lines. Send bagcol instances to
		// /v1/check or /v1/check/pair instead.
		return s.writeError(w, http.StatusUnsupportedMediaType,
			fmt.Errorf("service: %s is not accepted on /v1/batch (NDJSON only); POST bagcol bodies to /v1/check", bagio.ContentTypeColumnar))
	}
	if s.svc.Draining() {
		return s.writeError(w, http.StatusServiceUnavailable, ErrDraining)
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	// Response lines stream while the body is still being read. Without
	// full duplex, Go's HTTP/1 server answers the first flush by
	// discarding up to 256 KiB of the unread body and closing it: the
	// lines in that part are never checked, and the scanner fails with
	// "invalid Read on closed Body". HTTP/2 is full duplex already, and
	// there the call's error is harmless.
	_ = http.NewResponseController(w).EnableFullDuplex()
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)

	// Bounded pipelining that preserves input order: each line gets a
	// 1-slot result channel pushed into an ordered queue; the writer
	// drains it in order while up to pipelineDepth lines compute.
	pipelineDepth := s.svc.Checker().Parallelism() * 2
	pending := make(chan chan []byte, pipelineDepth)
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		for rc := range pending {
			w.Write(<-rc)
			w.Write([]byte("\n"))
			if flusher != nil {
				flusher.Flush()
			}
		}
	}()

	sc := bufio.NewScanner(http.MaxBytesReader(w, r.Body, s.maxBody))
	sc.Buffer(make([]byte, 0, 64*1024), int(s.maxBody))
	idx := 0
	truncated := false
	for sc.Scan() {
		if idx >= s.maxBatchLines {
			truncated = true
			break
		}
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		lineCopy := append([]byte(nil), line...)
		i := idx
		idx++
		rc := make(chan []byte, 1)
		pending <- rc
		go func() {
			rc <- s.batchLine(r, i, lineCopy, timeout)
		}()
	}
	// Truncation and read failures become a final, visible error line —
	// a silently short response would read as "everything was checked".
	// Index -1 marks it as a stream-level failure, unmistakable for any
	// per-line slot.
	var tailErr string
	if truncated {
		tailErr = fmt.Sprintf("batch truncated at %d lines", s.maxBatchLines)
	} else if err := sc.Err(); err != nil {
		tailErr = err.Error()
	}
	if tailErr != "" {
		rc := make(chan []byte, 1)
		data, _ := json.Marshal(BatchLine{Index: -1, Error: tailErr})
		rc <- data
		pending <- rc
	}
	close(pending)
	<-writerDone
	return http.StatusOK
}

// batchLine processes one NDJSON input line into its response line.
func (s *server) batchLine(r *http.Request, idx int, line []byte, timeout time.Duration) []byte {
	out := BatchLine{Index: idx}
	name, bags, err := bagio.DecodeAny(bytes.NewReader(line))
	if err == nil {
		out.Name = name
		var req Request
		kind := Global
		if req, err = buildRequest(kind, bags, timeout); err == nil {
			ctx, cancel := deadlineContext(r.Context(), timeout)
			out.Report, err = s.svc.Do(ctx, req)
			cancel()
		}
	}
	if err != nil {
		out.Error = err.Error()
	}
	data, merr := json.Marshal(out)
	if merr != nil {
		data, _ = json.Marshal(BatchLine{Index: idx, Error: merr.Error()})
	}
	return data
}

func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) int {
	hs := HealthStatus{
		Status:        "ok",
		Version:       buildinfo.String(),
		UptimeSeconds: time.Since(s.started).Seconds(),
		QueueDepth:    s.svc.QueueDepth(),
		QueueCapacity: s.svc.QueueCapacity(),
		Inflight:      s.svc.Inflight(),
	}
	if st, ok := s.svc.Checker().CacheStats(); ok {
		hs.Cache = &st
	}
	if ss, ok := s.svc.Checker().StoreStats(); ok {
		hs.Store = &ss
	}
	hs.FlightRecorder = s.svc.flight.Status()
	code := http.StatusOK
	if s.svc.Draining() {
		// Load balancers read this as "stop routing here" while in-flight
		// requests finish.
		hs.Status = "draining"
		code = http.StatusServiceUnavailable
	}
	return s.writeJSON(w, code, hs)
}

func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) int {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	_ = s.svc.reg.WritePrometheus(w)
	return http.StatusOK
}
