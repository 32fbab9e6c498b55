// Package metrics is a dependency-free instrumentation layer: atomic
// counters, gauges, and latency histograms with Prometheus text-format
// exposition. It exists so the serving daemon can expose a scrapeable
// /metrics endpoint without pulling a client library into a module whose
// build environment is hermetic.
//
// A Registry holds metric families; each family holds one series per
// label set. Registration is idempotent — asking for the same
// (family, labels) pair returns the same series — so hot paths can call
// Counter/Histogram without caching the handle, though caching it skips a
// map lookup. All series operations are lock-free atomics; registration
// and exposition take the registry lock.
//
// Exposition is deterministic: families sort by name, series by label
// string, which keeps scrapes diffable and tests simple.
package metrics

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// Registry is a set of metric families behind one exposition endpoint.
type Registry struct {
	mu   sync.Mutex
	fams map[string]*family
}

type familyKind int

const (
	kindCounter familyKind = iota
	kindGauge
	kindGaugeFunc
	kindCounterFunc
	kindHistogram
)

type family struct {
	name    string
	help    string
	kind    familyKind
	buckets []float64 // histogram families only
	series  map[string]any
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: make(map[string]*family)}
}

// family returns the named family, creating it with the given kind and
// help on first use. A name registered under two different kinds panics:
// that is a programming error no caller can handle.
func (r *Registry) family(name, help string, kind familyKind) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.fams[name]
	if !ok {
		f = &family{name: name, help: help, kind: kind, series: make(map[string]any)}
		r.fams[name] = f
		return f
	}
	if f.kind != kind {
		panic(fmt.Sprintf("metrics: family %q registered as two different kinds", name))
	}
	return f
}

// Counter returns the monotonically increasing counter for (name, labels).
// labels is the pre-rendered Prometheus label set without braces, e.g.
// `endpoint="check",code="200"`; "" means no labels.
func (r *Registry) Counter(name, labels, help string) *Counter {
	f := r.family(name, help, kindCounter)
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := f.series[labels]; ok {
		return c.(*Counter)
	}
	c := &Counter{}
	f.series[labels] = c
	return c
}

// Gauge returns the settable gauge for (name, labels).
func (r *Registry) Gauge(name, labels, help string) *Gauge {
	f := r.family(name, help, kindGauge)
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok := f.series[labels]; ok {
		return g.(*Gauge)
	}
	g := &Gauge{}
	f.series[labels] = g
	return g
}

// GaugeFunc registers a gauge whose value is read from fn at scrape time —
// the right shape for values another subsystem already owns (queue depth,
// cache occupancy). Re-registering the same (name, labels) replaces fn.
// fn runs under the registry lock and must not call back into the
// registry.
func (r *Registry) GaugeFunc(name, labels, help string, fn func() float64) {
	f := r.family(name, help, kindGaugeFunc)
	r.mu.Lock()
	defer r.mu.Unlock()
	f.series[labels] = fn
}

// CounterFunc registers a counter whose value is read from fn at scrape
// time, for monotonic totals another subsystem already accumulates
// (cache hit counts). Exposed with TYPE counter, so consumers may apply
// rate()/increase() semantics — fn must be non-decreasing over the
// process lifetime. Same locking contract as GaugeFunc.
func (r *Registry) CounterFunc(name, labels, help string, fn func() float64) {
	f := r.family(name, help, kindCounterFunc)
	r.mu.Lock()
	defer r.mu.Unlock()
	f.series[labels] = fn
}

// Histogram returns the histogram for (name, labels) with the given
// cumulative upper bounds (seconds, ascending; +Inf is implicit). The
// bounds of the first registration of a family win.
func (r *Registry) Histogram(name, labels, help string, buckets []float64) *Histogram {
	f := r.family(name, help, kindHistogram)
	r.mu.Lock()
	defer r.mu.Unlock()
	if f.buckets == nil {
		f.buckets = append([]float64(nil), buckets...)
	}
	if h, ok := f.series[labels]; ok {
		return h.(*Histogram)
	}
	h := newHistogram(f.buckets)
	f.series[labels] = h
	return h
}

// Counter is a monotonically increasing counter.
type Counter struct{ v atomic.Uint64 }

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a value that can go up and down.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adds delta with a CAS loop.
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a cumulative latency histogram with fixed bucket bounds.
type Histogram struct {
	bounds []float64
	counts []atomic.Uint64 // len(bounds)+1; last is +Inf
	count  atomic.Uint64
	sum    atomic.Uint64 // float64 bits, CAS-accumulated
}

func newHistogram(bounds []float64) *Histogram {
	return &Histogram{bounds: bounds, counts: make([]atomic.Uint64, len(bounds)+1)}
}

// DefaultLatencyBuckets spans the serving latency range: microsecond cache
// hits through multi-second integer searches.
var DefaultLatencyBuckets = []float64{
	1e-6, 5e-6, 25e-6, 1e-4, 5e-4, 1e-3, 5e-3, 25e-3, 0.1, 0.5, 1, 2.5, 10,
}

// Observe records one measurement (seconds).
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v: cumulative bucket
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// WritePrometheus writes every family in Prometheus text exposition
// format, deterministically ordered. The registry lock is held for the
// whole scrape: series maps mutate under it whenever a new label set
// registers (e.g. the first request with a new status code), and an
// unlocked scrape racing that insert would be a fatal concurrent map
// iteration. Series *values* are atomics, so the lock only serializes
// registration against exposition, never observation.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	fams := make([]*family, 0, len(r.fams))
	for _, f := range r.fams {
		fams = append(fams, f)
	}
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	for _, f := range fams {
		if err := f.write(w); err != nil {
			return err
		}
	}
	return nil
}

func (f *family) write(w io.Writer) error {
	typ := map[familyKind]string{
		kindCounter:     "counter",
		kindGauge:       "gauge",
		kindGaugeFunc:   "gauge",
		kindCounterFunc: "counter",
		kindHistogram:   "histogram",
	}[f.kind]
	if f.help != "" {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f.name, f.help); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.name, typ); err != nil {
		return err
	}
	labelSets := make([]string, 0, len(f.series))
	for ls := range f.series {
		labelSets = append(labelSets, ls)
	}
	sort.Strings(labelSets)
	for _, ls := range labelSets {
		if err := f.writeSeries(w, ls, f.series[ls]); err != nil {
			return err
		}
	}
	return nil
}

func (f *family) writeSeries(w io.Writer, labels string, s any) error {
	switch v := s.(type) {
	case *Counter:
		_, err := fmt.Fprintf(w, "%s %d\n", seriesName(f.name, labels), v.Value())
		return err
	case *Gauge:
		_, err := fmt.Fprintf(w, "%s %s\n", seriesName(f.name, labels), formatFloat(v.Value()))
		return err
	case func() float64:
		_, err := fmt.Fprintf(w, "%s %s\n", seriesName(f.name, labels), formatFloat(v()))
		return err
	case *Histogram:
		cumulative := uint64(0)
		for i, bound := range v.bounds {
			cumulative += v.counts[i].Load()
			le := fmt.Sprintf(`le="%s"`, formatFloat(bound))
			if _, err := fmt.Fprintf(w, "%s %d\n", seriesName(f.name+"_bucket", joinLabels(labels, le)), cumulative); err != nil {
				return err
			}
		}
		cumulative += v.counts[len(v.bounds)].Load()
		if _, err := fmt.Fprintf(w, "%s %d\n", seriesName(f.name+"_bucket", joinLabels(labels, `le="+Inf"`)), cumulative); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s %s\n", seriesName(f.name+"_sum", labels), formatFloat(v.Sum())); err != nil {
			return err
		}
		_, err := fmt.Fprintf(w, "%s %d\n", seriesName(f.name+"_count", labels), v.Count())
		return err
	default:
		return fmt.Errorf("metrics: unknown series type %T", s)
	}
}

func seriesName(name, labels string) string {
	if labels == "" {
		return name
	}
	return name + "{" + labels + "}"
}

func joinLabels(a, b string) string {
	if a == "" {
		return b
	}
	return a + "," + b
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
