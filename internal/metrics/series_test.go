package metrics

import (
	"math"
	"strings"
	"testing"
)

// Satellite coverage: exact-quantile Sample edge cases the load
// reports depend on — empty sample, single observation, all-equal
// values.
func TestSampleEmpty(t *testing.T) {
	s := NewSample(0)
	if s.N() != 0 {
		t.Fatalf("N = %d", s.N())
	}
	if got := s.Mean(); got != 0 {
		t.Fatalf("empty mean = %v, want 0", got)
	}
	for _, q := range []float64{0.5, 0.99, 0.999, 1} {
		if got := s.Quantile(q); !math.IsNaN(got) {
			t.Errorf("empty Quantile(%v) = %v, want NaN", q, got)
		}
	}
	if got := ExactQuantile(nil, 0.5); !math.IsNaN(got) {
		t.Errorf("ExactQuantile(nil) = %v, want NaN", got)
	}
	// String must not panic on emptiness.
	if out := s.String(); !strings.Contains(out, "n=0") {
		t.Errorf("String() = %q", out)
	}
}

func TestSampleSingleObservation(t *testing.T) {
	s := NewSample(1)
	s.Observe(0.25)
	if s.N() != 1 || s.Mean() != 0.25 {
		t.Fatalf("N=%d mean=%v", s.N(), s.Mean())
	}
	// Every valid quantile of a singleton is the observation itself.
	for _, q := range []float64{0.001, 0.5, 0.99, 0.999, 1} {
		if got := s.Quantile(q); got != 0.25 {
			t.Errorf("Quantile(%v) = %v, want 0.25", q, got)
		}
	}
	// Out-of-domain quantiles stay NaN even with data present.
	for _, q := range []float64{0, -1, 1.5, math.NaN()} {
		if got := s.Quantile(q); !math.IsNaN(got) {
			t.Errorf("Quantile(%v) = %v, want NaN", q, got)
		}
	}
}

func TestSampleAllEqualValues(t *testing.T) {
	s := NewSample(100)
	for i := 0; i < 100; i++ {
		s.Observe(3.5)
	}
	if got := s.Mean(); got != 3.5 {
		t.Fatalf("mean = %v", got)
	}
	qs := s.Quantiles(0.001, 0.5, 0.99, 0.999, 1)
	for i, got := range qs {
		if got != 3.5 {
			t.Errorf("quantile #%d = %v, want 3.5", i, got)
		}
	}
}

// TestNewFamiliesDeterministicOrdering: counter, counter-func and
// histogram families scrape identically twice in a row, with families
// in sorted name order and series in label order whatever the
// registration order.
func TestNewFamiliesDeterministicOrdering(t *testing.T) {
	r := NewRegistry()
	r.Counter("bagcd_load_shed_total", `reason="queue_full"`, "").Add(2)
	r.Counter("bagcd_load_shed_total", `reason="deadline_unmeetable"`, "").Add(5)
	r.CounterFunc("bagcd_load_admitted_total", "", "", func() float64 { return 7 })
	buckets := []float64{0.5, 1, 2}
	r.Histogram("bagcd_cost_error_ratio", `class="expensive"`, "", buckets).Observe(1.5)
	r.Histogram("bagcd_cost_error_ratio", `class="cheap"`, "", buckets).Observe(0.9)

	scrape := func() string {
		var sb strings.Builder
		if err := r.WritePrometheus(&sb); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	first := scrape()
	if second := scrape(); second != first {
		t.Fatalf("scrapes differ:\n%s\n---\n%s", first, second)
	}
	order := []string{
		"# TYPE bagcd_cost_error_ratio histogram",
		`bagcd_cost_error_ratio_bucket{class="cheap",le="0.5"}`,
		`bagcd_cost_error_ratio_count{class="cheap"}`,
		`bagcd_cost_error_ratio_bucket{class="expensive",le="0.5"}`,
		"# TYPE bagcd_load_admitted_total counter",
		"bagcd_load_admitted_total 7",
		"# TYPE bagcd_load_shed_total counter",
		`bagcd_load_shed_total{reason="deadline_unmeetable"} 5`,
		`bagcd_load_shed_total{reason="queue_full"} 2`,
	}
	pos := -1
	for _, marker := range order {
		i := strings.Index(first, marker)
		if i < 0 {
			t.Fatalf("scrape missing %q:\n%s", marker, first)
		}
		if i < pos {
			t.Fatalf("scrape ordering wrong around %q:\n%s", marker, first)
		}
		pos = i
	}
}
