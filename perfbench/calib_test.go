package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"
)

// TestScaledFigures checks how a phase's figures are scaled to the
// reference speed: each slice's load time and each answer's latency are
// multiplied by the slice's speed, and failed answers do not count
// towards throughput.
func TestScaledFigures(t *testing.T) {
	ms := time.Millisecond
	res := &phaseResult{
		slices: []slice{
			{from: 0, to: 100 * ms, speed: 2},          // a fast machine: its time counts double
			{from: 150 * ms, to: 350 * ms, speed: 0.5}, // a slow one: half
		},
		samples: []sample{
			{slice: 0, start: 0, lat: 10 * ms},
			{slice: 0, start: 10 * ms, lat: 20 * ms},
			{slice: 1, start: 150 * ms, lat: 40 * ms},
			{slice: 1, start: 190 * ms, lat: 8 * ms},
		},
	}
	check := newVerdict()
	check.bad[3] = true
	p := &phase{res: res, check: check}

	ss := p.goodSlices()
	if ss[0].good != 2 || ss[1].good != 1 {
		t.Fatalf("correct answers per slice %d, %d; want 2, 1", ss[0].good, ss[1].good)
	}
	// Scaled load time: 0.1 s × 2 + 0.2 s × 0.5 = 0.3 s for 3 correct answers.
	if got := scaledGoodput(ss); got < 9.999 || got > 10.001 {
		t.Fatalf("scaled goodput %v, want 10", got)
	}
	if got, want := p.scaledLatencies(), []float64{4, 20, 20, 40}; !slices.Equal(got, want) {
		t.Fatalf("scaled latencies %v, want %v", got, want)
	}
	if got := meanSpeed(ss); got < 0.999 || got > 1.001 {
		t.Fatalf("mean speed %v, want 1 (0.1 s at 2, 0.2 s at 0.5)", got)
	}
	// The median of 0.4×1.5, 0.2×0.5 and 0.3×1.
	if got := scaledSetup([]setup{{0.4, 1.5}, {0.2, 0.5}, {0.3, 1}}); got < 0.2999 || got > 0.3001 {
		t.Fatalf("scaled set-up %v, want 0.3", got)
	}
}

// TestRefAnswer checks that the reference server's work is fixed: the
// same body always gets the same answer, whatever the request's size.
func TestRefAnswer(t *testing.T) {
	a, err := refAnswer(refDoc)
	if err != nil {
		t.Fatal(err)
	}
	b, err := refAnswer(refDoc)
	if err != nil {
		t.Fatal(err)
	}
	var v struct {
		Names []string       `json:"names"`
		Count map[string]int `json:"count"`
	}
	if err := json.Unmarshal(a, &v); err != nil || string(a) != string(b) {
		t.Fatalf("answers differ or do not decode: %v", err)
	}
	if len(v.Names) != 24 || !slices.IsSorted(v.Names) {
		t.Fatalf("answer names %d entries, sorted %t; want 24, sorted", len(v.Names), slices.IsSorted(v.Names))
	}
	if _, err := refAnswer([]byte("{")); err == nil {
		t.Fatal("a malformed body was answered")
	}
	for _, tc := range []struct {
		query, body string
		status      int
	}{
		{"units=3", string(refDoc), http.StatusOK},
		{"units=0", string(refDoc), http.StatusBadRequest},
		{"", string(refDoc), http.StatusBadRequest},
		{"units=2", "{", http.StatusBadRequest},
	} {
		rec := httptest.NewRecorder()
		refHandler(rec, httptest.NewRequest(http.MethodPost, "/?"+tc.query, strings.NewReader(tc.body)))
		if rec.Code != tc.status || (tc.status == http.StatusOK && rec.Body.String() != string(a)) {
			t.Fatalf("%q: status %d, want %d (body %.80q)", tc.query, rec.Code, tc.status, rec.Body.String())
		}
	}
}
