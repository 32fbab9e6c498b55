package service

import (
	"bytes"
	"net/http"
	"strings"
	"testing"

	"bagconsistency/internal/trace"
	"bagconsistency/pkg/bagconsist"
)

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
// store stats exactly when it has them.
func TestHandlerServesWhatTheServiceHolds(t *testing.T) {
	st, err := bagconsist.OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for _, tc := range []struct {
		name         string
		opts         []bagconsist.Option
		cache, store bool
	}{
		{"store", []bagconsist.Option{bagconsist.WithCache(64), bagconsist.WithStore(st)}, true, true},
		{"cache", []bagconsist.Option{bagconsist.WithCache(64)}, true, false},
		{"none", nil, false, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// No Config.Metrics: the handler must serve the private
			// registry the Service counts into.
			svc := newService(t, Config{Checker: bagconsist.New(tc.opts...)})
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
