package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"bagconsistency/internal/buildinfo"
	"bagconsistency/internal/metrics"
	"bagconsistency/pkg/bagconsist"
)

// ReportSchema versions the JSON report layout; ledger entries pin it so
// a schema change cannot silently reinterpret archived runs.
const ReportSchema = "bagload/v1"

// Report is the full result of one load run: what was asked for, what
// was sent, what came back, and what the server observed. It is both the
// tool's JSON output and the experiment ledger's data format.
type Report struct {
	Schema string               `json:"schema"`
	Label  string               `json:"label,omitempty"`
	Runner buildinfo.RunnerMeta `json:"runner"`
	Config RunConfig            `json:"config"`

	Traffic      TrafficStats          `json:"traffic"`
	Latency      LatencySummary        `json:"latency"`
	PerClass     map[string]ClassStats `json:"per_class"`
	Server       *ServerStats          `json:"server,omitempty"`
	Conservation Conservation          `json:"conservation"`

	// Traces holds the K slowest sampled requests' phase trees
	// (-trace-sample / -trace-top), so a ledger entry can attribute a tail
	// latency to queue wait versus engine phases with direct evidence.
	Traces []CapturedTrace `json:"traces,omitempty"`

	// Workload is decoded, never written: reports archived before the
	// hot-key sketch was deleted carry its cross-check against the
	// client's exact per-key counts here.
	Workload json.RawMessage `json:"workload,omitempty"`
}

// CapturedTrace is one sampled request's end-to-end phase tree as the
// server returned it in Report.Phases.
type CapturedTrace struct {
	TraceID   string                 `json:"trace_id"`
	Class     string                 `json:"class"`
	LatencyMs float64                `json:"latency_ms"` // client-observed wall time
	Phases    []bagconsist.PhaseSpan `json:"phases"`
}

// RunConfig echoes every knob that shaped the run, making the report
// self-describing: rerunning with these values reproduces the schedule
// byte-for-byte.
type RunConfig struct {
	Target           string  `json:"target"` // "selfhost" or the daemon URL
	Seed             int64   `json:"seed"`
	RPS              float64 `json:"rps"`
	DurationSec      float64 `json:"duration_sec"`
	Arrival          string  `json:"arrival"`
	MixPair          float64 `json:"mix_pair"`
	MixGlobal        float64 `json:"mix_global"`
	MixBatch         float64 `json:"mix_batch"`
	ZipfS            float64 `json:"zipf_s"`
	BatchSize        int     `json:"batch_size"`
	RequestTimeoutMs float64 `json:"request_timeout_ms"`
	Retries          int     `json:"retries"`
	TraceSample      int     `json:"trace_sample,omitempty"`

	CorpusItems       int     `json:"corpus_items"`
	CorpusAcyclicFrac float64 `json:"corpus_acyclic_frac"`
	CorpusSupport     int     `json:"corpus_support"`
	CorpusCyclicN     int     `json:"corpus_cyclic_n"`

	Selfhost *SelfhostConfig `json:"selfhost,omitempty"`
}

// SelfhostConfig echoes the in-process daemon's knobs. Admission names
// the admission policy: new runs record "hardness", the only one, and
// reports archived before the drop-tail arm was deleted may say "fifo".
// BranchLowFirst is archival: the integer search has one value order, so
// new runs record false, and reports archived before the low-first order
// was deleted may say true. HotkeyK is archival too: new runs leave it
// 0, and reports archived before the hot-key sketch was deleted record
// the sketch's capacity.
type SelfhostConfig struct {
	Parallelism      int     `json:"parallelism"`
	QueueDepth       int     `json:"queue_depth"`
	CacheSize        int     `json:"cache_size"`
	Admission        string  `json:"admission"`
	ShedThreshold    float64 `json:"shed_threshold"`
	ExpensiveSupport int     `json:"expensive_support"`
	MaxNodes         int64   `json:"max_nodes"`
	MaxTimeoutMs     float64 `json:"max_timeout_ms"`
	BranchLowFirst   bool    `json:"branch_low_first"`
	HotkeyK          int     `json:"hotkey_k,omitempty"`
}

// TrafficStats counts the open-loop send side. Sent partitions exactly
// into the five outcomes — the client half of the conservation
// invariant.
type TrafficStats struct {
	Scheduled      int     `json:"scheduled"`
	Sent           int     `json:"sent"`
	OK             int     `json:"ok"`
	Shed           int     `json:"shed"`
	Failed         int     `json:"failed"`
	Transport      int     `json:"transport"`
	Timeout        int     `json:"timeout"`
	BatchLineErrs  int     `json:"batch_line_errors"`
	LateFires      int     `json:"late_fires"` // events fired >1ms after their slot
	WallSec        float64 `json:"wall_sec"`
	OfferedRPS     float64 `json:"offered_rps"`
	GoodputRPS     float64 `json:"goodput_rps"`
	ShedRate       float64 `json:"shed_rate"`
	CacheHitRate   float64 `json:"cache_hit_rate"`   // server-side, run delta
	CacheHitsDelta float64 `json:"cache_hits_delta"` // absolute hits this run
}

// LatencySummary holds exact (nearest-rank) quantiles over successful
// requests — not bucket interpolations, so the p999 is a latency some
// request actually saw.
type LatencySummary struct {
	N      int     `json:"n"`
	MeanMs float64 `json:"mean_ms"`
	P50Ms  float64 `json:"p50_ms"`
	P90Ms  float64 `json:"p90_ms"`
	P99Ms  float64 `json:"p99_ms"`
	P999Ms float64 `json:"p999_ms"`
	MaxMs  float64 `json:"max_ms"`
}

// ClassStats is the per-request-class slice of the traffic counts.
type ClassStats struct {
	Sent      int            `json:"sent"`
	OK        int            `json:"ok"`
	Shed      int            `json:"shed"`
	Failed    int            `json:"failed"`
	Transport int            `json:"transport"`
	Timeout   int            `json:"timeout"`
	Latency   LatencySummary `json:"latency"`
}

// ServerStats is the run delta of the daemon's own counters, scraped
// from /metrics before and after the run (after quiescing, so queued
// work has resolved).
type ServerStats struct {
	Admitted          float64            `json:"admitted"`
	AdmittedCheap     float64            `json:"admitted_cheap"`
	AdmittedExpensive float64            `json:"admitted_expensive"`
	ShedQueueFull     float64            `json:"shed_queue_full"`
	ShedExpensive     float64            `json:"shed_predicted_expensive"`
	ShedDeadline      float64            `json:"shed_deadline_unmeetable"`
	Abandoned         float64            `json:"abandoned"`
	Completed         map[string]float64 `json:"completed_by_outcome"`
	CacheHits         float64            `json:"cache_hits"`
	CacheMisses       float64            `json:"cache_misses"`
	CacheCoalesced    float64            `json:"cache_coalesced"`
	CacheEvictions    float64            `json:"cache_evictions"`
	MeanQueueWaitMs   map[string]float64 `json:"mean_queue_wait_ms"`
	MeanServiceMs     map[string]float64 `json:"mean_service_ms"`
	// ILPNodes is the run's delta of branch-and-bound nodes expanded —
	// the compute-side cost behind the latency numbers above.
	ILPNodes float64 `json:"ilp_nodes,omitempty"`
}

// Conservation is the request-accounting invariant, both halves.
// ClientHolds is checkable on every run; ServerHolds needs the
// before/after scrape pair and a quiesced server.
type Conservation struct {
	ClientHolds bool `json:"client_holds"`
	// sent == ok + shed + failed + transport + timeout
	ClientSlack int   `json:"client_slack"`
	ServerHolds *bool `json:"server_holds,omitempty"`
	// admitted == completed(all outcomes) + abandoned
	ServerSlack float64 `json:"server_slack,omitempty"`
}

func summarize(sample *metrics.Sample) LatencySummary {
	n := sample.N()
	if n == 0 {
		return LatencySummary{}
	}
	qs := sample.Quantiles(0.5, 0.9, 0.99, 0.999, 1)
	return LatencySummary{
		N:      n,
		MeanMs: sample.Mean() * 1000,
		P50Ms:  qs[0] * 1000,
		P90Ms:  qs[1] * 1000,
		P99Ms:  qs[2] * 1000,
		P999Ms: qs[3] * 1000,
		MaxMs:  qs[4] * 1000,
	}
}

// writeTable renders the human-facing summary.
func writeTable(w io.Writer, r *Report) {
	fmt.Fprintf(w, "bagload %s  target=%s  arrival=%s  rps=%g  duration=%gs  seed=%d\n",
		r.Schema, r.Config.Target, r.Config.Arrival, r.Config.RPS, r.Config.DurationSec, r.Config.Seed)
	if r.Config.Selfhost != nil {
		fmt.Fprintf(w, "selfhost: admission=%s threshold=%g parallelism=%d queue=%d cache=%d\n",
			r.Config.Selfhost.Admission, r.Config.Selfhost.ShedThreshold,
			r.Config.Selfhost.Parallelism, r.Config.Selfhost.QueueDepth, r.Config.Selfhost.CacheSize)
	}
	t := r.Traffic
	fmt.Fprintf(w, "\nsent %d of %d scheduled in %.2fs (offered %.1f rps, %d late fires)\n",
		t.Sent, t.Scheduled, t.WallSec, t.OfferedRPS, t.LateFires)
	fmt.Fprintf(w, "  ok %d   shed %d (%.1f%%)   failed %d   transport %d   timeout %d   batch-line-errs %d\n",
		t.OK, t.Shed, 100*t.ShedRate, t.Failed, t.Transport, t.Timeout, t.BatchLineErrs)
	fmt.Fprintf(w, "  goodput %.1f rps   cache hit rate %.1f%% (%g hits)\n",
		t.GoodputRPS, 100*t.CacheHitRate, t.CacheHitsDelta)

	fmt.Fprintf(w, "\n%-8s %8s %9s %9s %9s %9s %9s %9s\n",
		"class", "n", "mean", "p50", "p90", "p99", "p999", "max")
	writeLatencyRow(w, "all", r.Latency)
	classes := make([]string, 0, len(r.PerClass))
	for c := range r.PerClass {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	for _, c := range classes {
		writeLatencyRow(w, c, r.PerClass[c].Latency)
	}

	if s := r.Server; s != nil {
		fmt.Fprintf(w, "\nserver: admitted %g (cheap %g, expensive %g)   abandoned %g\n",
			s.Admitted, s.AdmittedCheap, s.AdmittedExpensive, s.Abandoned)
		fmt.Fprintf(w, "  shed: queue_full %g   predicted_expensive %g   deadline_unmeetable %g\n",
			s.ShedQueueFull, s.ShedExpensive, s.ShedDeadline)
		for _, kind := range sortedKeys(s.MeanQueueWaitMs) {
			fmt.Fprintf(w, "  %-6s queue-wait %8.2fms   service %8.2fms\n",
				kind, s.MeanQueueWaitMs[kind], s.MeanServiceMs[kind])
		}
		if s.ILPNodes > 0 {
			fmt.Fprintf(w, "  ilp: nodes %g\n", s.ILPNodes)
		}
	}
	c := r.Conservation
	fmt.Fprintf(w, "\nconservation: client %s", holdsWord(c.ClientHolds))
	if c.ServerHolds != nil {
		fmt.Fprintf(w, "   server %s", holdsWord(*c.ServerHolds))
	}
	fmt.Fprintln(w)
}

func writeLatencyRow(w io.Writer, name string, l LatencySummary) {
	if l.N == 0 {
		fmt.Fprintf(w, "%-8s %8d %s\n", name, 0, strings.Repeat("         -", 6))
		return
	}
	fmt.Fprintf(w, "%-8s %8d %8.2fms %8.2fms %8.2fms %8.2fms %8.2fms %8.2fms\n",
		name, l.N, l.MeanMs, l.P50Ms, l.P90Ms, l.P99Ms, l.P999Ms, l.MaxMs)
}

func holdsWord(ok bool) string {
	if ok {
		return "HOLDS"
	}
	return "VIOLATED"
}

func sortedKeys(m map[string]float64) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// msOf converts a duration flag to the milliseconds the report records.
func msOf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
