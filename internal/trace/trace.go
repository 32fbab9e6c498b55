// Package trace is a dependency-free, request-scoped span recorder.
//
// A Trace is created per request, carried through the stack in a
// context.Context, and records a bounded tree of phase spans (queue wait,
// cache lookups, engine phases, ILP search, ...) with monotonic timings,
// string attributes and int64 counters. The recorder is designed so that
// the disabled path costs one context lookup and a nil check: every Span
// method is nil-safe, and Start on a context without a trace returns the
// context unchanged and a nil span.
//
// Spans live in a fixed-capacity arena owned by the Trace: starting a span
// never reallocates (pointers handed out stay valid), and once the arena
// is full further starts are counted as dropped rather than grown. This
// bounds both memory and worst-case recording cost for adversarial
// requests (e.g. huge batches).
package trace

import (
	"encoding/hex"
	"math/rand/v2"
	"sync"
	"time"
)

// ID is a 16-byte trace identifier (W3C trace-context compatible).
type ID [16]byte

// IsZero reports whether the ID is all zeroes (invalid per W3C).
func (id ID) IsZero() bool { return id == ID{} }

// String renders the ID as 32 lowercase hex digits.
func (id ID) String() string { return hex.EncodeToString(id[:]) }

// NewID returns a random non-zero trace ID. Trace IDs are correlation
// handles, not secrets, so the fast math/rand generator is fine.
func NewID() ID {
	var id ID
	for id.IsZero() {
		a, b := rand.Uint64(), rand.Uint64()
		for i := 0; i < 8; i++ {
			id[i] = byte(a >> (8 * i))
			id[8+i] = byte(b >> (8 * i))
		}
	}
	return id
}

// DefaultMaxSpans bounds the span arena when no explicit capacity is
// given. Large enough for any single check (a handful of engine phases
// per tier) plus a generous batch prefix; small enough that a trace stays
// a few tens of KB.
const DefaultMaxSpans = 256

// Attr is one string-valued span attribute.
type Attr struct {
	Key   string
	Value string
}

// Counter is one int64-valued span counter (ILP nodes, flow
// augmentations, ...).
type Counter struct {
	Key   string
	Value int64
}

// Span names used across the serving stack. Centralised so tests and
// docs/OBSERVABILITY.md stay in sync with the recorder call sites.
const (
	SpanRequest      = "request"
	SpanDecode       = "http.decode"
	SpanQueueWait    = "queue.wait"
	SpanCheck        = "check"
	SpanFingerprint  = "canon.fingerprint"
	SpanCacheRAM     = "cache.ram"
	SpanCacheStore   = "cache.store"
	SpanCompute      = "compute"
	SpanFlightWait   = "singleflight.wait"
	SpanMarginals    = "engine.marginals"
	SpanPairwise     = "engine.pairwise"
	SpanAcyclic      = "engine.acyclic-compose"
	SpanPairNet      = "engine.pairnet-build"
	SpanMaxflow      = "engine.maxflow"
	SpanProgram      = "engine.program-build"
	SpanILPSearch    = "engine.ilp-search"
	SpanHybridCore   = "engine.hybrid-core"
	SpanHybridFringe = "engine.hybrid-fringe"
)

// Trace is one request's span recorder. All methods are safe for
// concurrent use; Span handles may cross goroutines (e.g. the admission
// queue records the wait span from the worker that picks the task up).
type Trace struct {
	id    ID
	start time.Time

	mu      sync.Mutex
	spans   []Span // fixed-capacity arena; never reallocated
	dropped int
}

// Span is one recorded phase. The zero value is never handed out;
// callers receive either a pointer into the trace arena or nil, and every
// method tolerates nil so call sites need no tracing-enabled checks.
type Span struct {
	tr       *Trace
	parent   *Span
	name     string
	start    time.Time
	dur      time.Duration
	ended    bool
	attrs    []Attr
	counters []Counter
}

// New creates a trace with the given ID and a started root span. A zero
// ID is replaced with a fresh random one.
func New(id ID, rootName string) *Trace {
	return NewWithCapacity(id, rootName, DefaultMaxSpans)
}

// NewWithCapacity is New with an explicit span-arena capacity (minimum 1:
// the root span always fits).
func NewWithCapacity(id ID, rootName string, maxSpans int) *Trace {
	if id.IsZero() {
		id = NewID()
	}
	if maxSpans < 1 {
		maxSpans = 1
	}
	now := time.Now()
	t := &Trace{
		id:    id,
		start: now,
		spans: make([]Span, 1, maxSpans),
	}
	t.spans[0] = Span{tr: t, name: rootName, start: now}
	return t
}

// ID returns the trace identifier.
func (t *Trace) ID() ID { return t.id }

// Root returns the root span.
func (t *Trace) Root() *Span { return &t.spans[0] }

// startSpan appends a child span to the arena, or counts a drop when the
// arena is full.
func (t *Trace) startSpan(parent *Span, name string) *Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) == cap(t.spans) {
		t.dropped++
		return nil
	}
	t.spans = append(t.spans, Span{tr: t, parent: parent, name: name, start: time.Now()})
	return &t.spans[len(t.spans)-1]
}

// StartChild starts a span under parent. A nil receiver or exhausted
// arena yields nil, which every Span method tolerates.
func (s *Span) StartChild(name string) *Span {
	if s == nil {
		return nil
	}
	return s.tr.startSpan(s, name)
}

// End stamps the span's duration. Safe to call at most once per span
// (later calls are ignored) and on nil.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.tr.mu.Lock()
	if !s.ended {
		s.ended = true
		s.dur = time.Since(s.start)
	}
	s.tr.mu.Unlock()
}

// SetStart rewrites the span's start time. Used for phases whose start
// predates the recording call site — the queue-wait span is recorded by
// the worker that dequeues the task, with the enqueue timestamp as start.
func (s *Span) SetStart(at time.Time) {
	if s == nil || at.IsZero() {
		return
	}
	s.tr.mu.Lock()
	s.start = at
	s.tr.mu.Unlock()
}

// SetAttr records a string attribute. Last write per key wins.
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	s.tr.mu.Lock()
	defer s.tr.mu.Unlock()
	for i := range s.attrs {
		if s.attrs[i].Key == key {
			s.attrs[i].Value = value
			return
		}
	}
	s.attrs = append(s.attrs, Attr{Key: key, Value: value})
}

// SetCounter records an int64 counter. Last write per key wins.
func (s *Span) SetCounter(key string, value int64) {
	if s == nil {
		return
	}
	s.tr.mu.Lock()
	defer s.tr.mu.Unlock()
	for i := range s.counters {
		if s.counters[i].Key == key {
			s.counters[i].Value = value
			return
		}
	}
	s.counters = append(s.counters, Counter{Key: key, Value: value})
}

// Node is one span in a snapshot tree. Times are nanoseconds relative to
// the trace start so trees are stable under serialization.
type Node struct {
	Name       string            `json:"name"`
	StartNs    int64             `json:"start_ns"`
	DurationNs int64             `json:"duration_ns"`
	Attrs      map[string]string `json:"attrs,omitempty"`
	Counters   map[string]int64  `json:"counters,omitempty"`
	Children   []*Node           `json:"children,omitempty"`
}

// Snapshot is an immutable copy of a trace, suitable for rings, JSON
// endpoints and slow-query files.
type Snapshot struct {
	TraceID    string    `json:"trace_id"`
	Start      time.Time `json:"start"`
	DurationNs int64     `json:"duration_ns"`
	Dropped    int       `json:"dropped_spans,omitempty"`
	Root       *Node     `json:"root"`
}

// Snapshot copies the current span tree. Spans not yet ended are reported
// with their duration so far. The result shares nothing with the trace.
func (t *Trace) Snapshot() *Snapshot {
	t.mu.Lock()
	defer t.mu.Unlock()
	now := time.Now()
	nodes := make([]*Node, len(t.spans))
	byAddr := make(map[*Span]*Node, len(t.spans))
	for i := range t.spans {
		sp := &t.spans[i]
		dur := sp.dur
		if !sp.ended {
			dur = now.Sub(sp.start)
		}
		n := &Node{
			Name:       sp.name,
			StartNs:    sp.start.Sub(t.start).Nanoseconds(),
			DurationNs: dur.Nanoseconds(),
		}
		if len(sp.attrs) > 0 {
			n.Attrs = make(map[string]string, len(sp.attrs))
			for _, a := range sp.attrs {
				n.Attrs[a.Key] = a.Value
			}
		}
		if len(sp.counters) > 0 {
			n.Counters = make(map[string]int64, len(sp.counters))
			for _, c := range sp.counters {
				n.Counters[c.Key] = c.Value
			}
		}
		nodes[i] = n
		byAddr[sp] = n
	}
	for i := range t.spans {
		if p := t.spans[i].parent; p != nil {
			pn := byAddr[p]
			pn.Children = append(pn.Children, nodes[i])
		}
	}
	return &Snapshot{
		TraceID:    t.id.String(),
		Start:      t.start,
		DurationNs: nodes[0].DurationNs,
		Dropped:    t.dropped,
		Root:       nodes[0],
	}
}
