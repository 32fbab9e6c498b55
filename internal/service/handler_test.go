package service

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"bagconsistency/internal/telemetry"
	"bagconsistency/internal/trace"
	"bagconsistency/pkg/bagconsist"
)

// newHTTPServer serves a prebuilt handler with drain-on-cleanup.
func newHTTPServer(t *testing.T, h http.Handler, svc *Service) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(h)
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = svc.Drain(ctx)
	})
	return ts
}

// getJSON asserts the status code and decodes the body into out.
func getJSON(t *testing.T, url string, wantCode int, out any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantCode {
		t.Fatalf("GET %s: status %d, want %d", url, resp.StatusCode, wantCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatal(err)
	}
}

// getText returns the body of a GET that must answer 200.
func getText(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d: %s", url, resp.StatusCode, buf.String())
	}
	return buf.String()
}

// TestHandlerServesWhatTheServiceHolds builds handlers from ServerConfig
// with nothing but the Service: /metrics must serve the
// Service's own registry, the private one included, and the Checker's
// cache and store counters; /healthz must carry the Checker's cache and
// store stats exactly when it has them, and the flight recorder's
// status exactly when the Service has one.
func TestHandlerServesWhatTheServiceHolds(t *testing.T) {
	st, err := bagconsist.OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for _, tc := range []struct {
		name                 string
		opts                 []bagconsist.Option
		cache, store, flight bool
	}{
		{"store", []bagconsist.Option{bagconsist.WithCache(64), bagconsist.WithStore(st)}, true, true, false},
		{"cache", []bagconsist.Option{bagconsist.WithCache(64)}, true, false, false},
		{"flight", []bagconsist.Option{bagconsist.WithCache(64)}, true, false, true},
		{"none", nil, false, false, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var rec *telemetry.Recorder
			if tc.flight {
				var err error
				if rec, err = telemetry.NewRecorder(telemetry.RecorderConfig{Dir: t.TempDir()}); err != nil {
					t.Fatal(err)
				}
				defer rec.Close()
			}
			// No Config.Metrics: the handler must serve the private
			// registry the Service counts into.
			svc := newService(t, Config{Checker: bagconsist.New(tc.opts...), Flight: rec})
			h, err := NewHandler(ServerConfig{Service: svc})
			if err != nil {
				t.Fatal(err)
			}
			ts := newHTTPServer(t, h, svc)
			for range 2 {
				if resp, data := postBody(t, ts.URL+"/v1/check", consistentPairText); resp.StatusCode != http.StatusOK {
					t.Fatalf("check: %d %s", resp.StatusCode, data)
				}
			}

			var hs HealthStatus
			getJSON(t, ts.URL+"/healthz", http.StatusOK, &hs)
			if (hs.Cache != nil) != tc.cache || (hs.Store != nil) != tc.store {
				t.Fatalf("healthz cache=%+v store=%+v, want cache %v store %v", hs.Cache, hs.Store, tc.cache, tc.store)
			}
			if tc.cache && hs.Cache.Hits != 1 {
				t.Fatalf("healthz cache hits %d, want 1", hs.Cache.Hits)
			}
			if tc.store && hs.Store.Puts == 0 {
				t.Fatalf("healthz store %+v, want the first check written through", hs.Store)
			}
			if (hs.FlightRecorder != nil) != tc.flight {
				t.Fatalf("healthz flight_recorder=%+v, want present %v", hs.FlightRecorder, tc.flight)
			}
			if tc.flight && hs.FlightRecorder.Schema != telemetry.FlightrecSchema {
				t.Fatalf("healthz flight_recorder schema %q", hs.FlightRecorder.Schema)
			}

			out := getText(t, ts.URL+"/metrics")
			for _, want := range []string{
				`bagcd_requests_total{kind="global",outcome="ok"} 2`,
				`bagcd_http_requests_total{path="/v1/check",code="200"} 2`,
			} {
				if !strings.Contains(out, want) {
					t.Errorf("metrics missing %q", want)
				}
			}
			if got := strings.Contains(out, "bagcd_cache_hits_total 1"); got != tc.cache {
				t.Errorf("bagcd_cache_hits_total 1 served=%v, want %v", got, tc.cache)
			}
			if got := strings.Contains(out, "bagcd_store_puts_total"); got != tc.store {
				t.Errorf("bagcd_store_puts_total served=%v, want %v", got, tc.store)
			}

			// No traceparent and no slow capture: nothing is traced.
			var tb tracesBody
			getJSON(t, ts.URL+"/debug/traces", http.StatusOK, &tb)
			if len(tb.Traces) != 0 {
				t.Fatalf("%d traces recorded without traceparent or Slow", len(tb.Traces))
			}

			// The recorder's status lives on /healthz; the old workload
			// endpoint is gone.
			resp, err := http.Get(ts.URL + "/debug/workload")
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusNotFound {
				t.Fatalf("GET /debug/workload: status %d, want 404", resp.StatusCode)
			}
		})
	}
}

// TestSlowCaptureTracesEveryRequest: setting ServerConfig.Slow is what
// traces requests that carry no traceparent.
func TestSlowCaptureTracesEveryRequest(t *testing.T) {
	slow, err := trace.NewSlowCapture(0, 16, "")
	if err != nil {
		t.Fatal(err)
	}
	svc := newService(t, Config{Checker: bagconsist.New(bagconsist.WithCache(64))})
	h, err := NewHandler(ServerConfig{Service: svc, Slow: slow})
	if err != nil {
		t.Fatal(err)
	}
	ts := newHTTPServer(t, h, svc)
	if resp, data := postBody(t, ts.URL+"/v1/check", consistentPairText); resp.StatusCode != http.StatusOK {
		t.Fatalf("check: %d %s", resp.StatusCode, data)
	}
	if resp, data := postBody(t, ts.URL+"/v1/check/pair", consistentPairText); resp.StatusCode != http.StatusOK {
		t.Fatalf("pair: %d %s", resp.StatusCode, data)
	}
	var tb tracesBody
	getJSON(t, ts.URL+"/debug/traces", http.StatusOK, &tb)
	if len(tb.Traces) != 2 {
		t.Fatalf("%d traces in the ring, want one per request (2)", len(tb.Traces))
	}
	getJSON(t, ts.URL+"/debug/traces?slow=1", http.StatusOK, &tb)
	if len(tb.Traces) != 2 {
		t.Fatalf("%d slow captures at threshold 0, want 2", len(tb.Traces))
	}
}
