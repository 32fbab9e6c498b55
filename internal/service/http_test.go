package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"bagconsistency/internal/bagio"
	"bagconsistency/internal/metrics"
	"bagconsistency/pkg/bagconsist"
)

// consistentPairText is a consistent two-bag instance in the text format.
const consistentPairText = `
bag orders
schema CUSTOMER ITEM
alice widget : 2
bob gadget

bag totals
schema CUSTOMER
alice : 2
bob
`

// inconsistentPairText disagrees on alice's marginal.
const inconsistentPairText = `
bag orders
schema CUSTOMER ITEM
alice widget : 2

bag totals
schema CUSTOMER
alice : 3
`

func pairJSON(t *testing.T, text string) string {
	t.Helper()
	bags, err := bagio.ParseCollection(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := bagio.EncodeJSON(&buf, bags); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

type testServer struct {
	*httptest.Server
	svc   *Service
	reg   *metrics.Registry
	cache *bagconsist.Cache
}

func newTestServer(t *testing.T, svcCfg Config) *testServer {
	t.Helper()
	reg := metrics.NewRegistry()
	var cache *bagconsist.Cache
	if svcCfg.Checker == nil {
		cache = bagconsist.NewCache(256)
		svcCfg.Checker = bagconsist.New(bagconsist.WithParallelism(4), bagconsist.WithSharedCache(cache))
	}
	svcCfg.Metrics = reg
	svc, err := New(svcCfg)
	if err != nil {
		t.Fatal(err)
	}
	h, err := NewHandler(ServerConfig{Service: svc})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(h)
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = svc.Drain(ctx)
	})
	return &testServer{Server: ts, svc: svc, reg: reg, cache: cache}
}

func postBody(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/octet-stream", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

func TestCheckEndpointAcceptsAllFormats(t *testing.T) {
	ts := newTestServer(t, Config{})
	jsonArr := pairJSON(t, consistentPairText)
	var obj bytes.Buffer
	bags, err := bagio.ParseCollection(strings.NewReader(consistentPairText))
	if err != nil {
		t.Fatal(err)
	}
	if err := bagio.EncodeJSONCollection(&obj, "retail", bags); err != nil {
		t.Fatal(err)
	}
	for label, body := range map[string]string{
		"text":        consistentPairText,
		"json array":  jsonArr,
		"json object": obj.String(),
	} {
		resp, data := postBody(t, ts.URL+"/v1/check", body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", label, resp.StatusCode, data)
		}
		var rep bagconsist.Report
		if err := json.Unmarshal(data, &rep); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if !rep.Consistent || rep.Witness == nil {
			t.Fatalf("%s: report %+v, want consistent with witness", label, rep)
		}
	}
}

func TestCheckEndpointInconsistent(t *testing.T) {
	ts := newTestServer(t, Config{})
	resp, data := postBody(t, ts.URL+"/v1/check", inconsistentPairText)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var rep bagconsist.Report
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Consistent {
		t.Fatal("inconsistent instance reported consistent")
	}
}

func TestPairEndpointRequiresTwoBags(t *testing.T) {
	ts := newTestServer(t, Config{})
	resp, data := postBody(t, ts.URL+"/v1/check/pair", consistentPairText)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pair status %d: %s", resp.StatusCode, data)
	}
	one := "bag solo\nschema A\nx : 1\n"
	resp, _ = postBody(t, ts.URL+"/v1/check/pair", one)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("1-bag pair: status %d, want 400", resp.StatusCode)
	}
}

func TestCheckEndpointBadRequests(t *testing.T) {
	ts := newTestServer(t, Config{})
	cases := map[string]string{
		"empty body":   "",
		"garbage text": "schema before bag\n",
		"broken json":  `[{"schema":`,
	}
	for label, body := range cases {
		resp, _ := postBody(t, ts.URL+"/v1/check", body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", label, resp.StatusCode)
		}
	}
	resp, err := http.Post(ts.URL+"/v1/check?timeout_ms=-5", "", strings.NewReader(consistentPairText))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("negative timeout: status %d, want 400", resp.StatusCode)
	}
}

func TestTimeoutQueryParamKillsSlowSearch(t *testing.T) {
	ts := newTestServer(t, Config{Checker: slowChecker(1)})
	bags := collectionText(t, slowTriangle(t))
	start := time.Now()
	resp, data := postBody(t, ts.URL+"/v1/check?timeout_ms=100", bags)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d (%s), want 504", resp.StatusCode, data)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("timeout not prompt: %v", elapsed)
	}
}

// collectionText renders a collection's bags in the text format.
func collectionText(t *testing.T, coll *bagconsist.Collection) string {
	t.Helper()
	var named []bagio.NamedBag
	for i, b := range coll.Bags() {
		named = append(named, bagio.NamedBag{Name: fmt.Sprintf("b%d", i), Bag: b})
	}
	var buf bytes.Buffer
	if err := bagio.WriteCollection(&buf, named); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func TestShedResponseIs503WithRetryAfter(t *testing.T) {
	ts := newTestServer(t, Config{Checker: slowChecker(1), QueueDepth: 1})
	slow := collectionText(t, slowTriangle(t))

	// Saturate: one in flight, one queued. These requests are abandoned
	// via client timeout at the end of the test. The second starts only
	// once the worker holds the first, or the 1-deep queue would shed it.
	var wg sync.WaitGroup
	clientCtx, cancelClients := context.WithCancel(context.Background())
	defer cancelClients()
	deadline := time.Now().Add(10 * time.Second)
	for range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			req, _ := http.NewRequestWithContext(clientCtx, "POST", ts.URL+"/v1/check", strings.NewReader(slow))
			resp, err := http.DefaultClient.Do(req)
			if err == nil {
				resp.Body.Close()
			}
		}()
		for ts.svc.Inflight() < 1 && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
	}
	for (ts.svc.Inflight() < 1 || ts.svc.QueueDepth() < 1) && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}

	resp, data := postBody(t, ts.URL+"/v1/check", consistentPairText)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d (%s), want 503", resp.StatusCode, data)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Fatal("503 without Retry-After")
	}
	var eb errorBody
	if err := json.Unmarshal(data, &eb); err != nil || eb.Error == "" {
		t.Fatalf("shed body %q, want JSON error envelope", data)
	}
	cancelClients()
	wg.Wait()
}

func TestBatchNDJSONOrderedWithPerLineErrors(t *testing.T) {
	ts := newTestServer(t, Config{})
	good := strings.TrimSpace(strings.ReplaceAll(pairJSON(t, consistentPairText), "\n", " "))
	bad := `[{"schema":["A"],"tuples":[{"values":["x","y"],"count":1}]}]`
	named := `{"name":"n2","bags":` + strings.TrimSpace(strings.ReplaceAll(pairJSON(t, inconsistentPairText), "\n", " ")) + `}`
	body := good + "\n" + bad + "\n\n" + named + "\n"

	resp, data := postBody(t, ts.URL+"/v1/batch", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("Content-Type %q", ct)
	}
	var lines []BatchLine
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		var bl BatchLine
		if err := json.Unmarshal(sc.Bytes(), &bl); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		lines = append(lines, bl)
	}
	if len(lines) != 3 {
		t.Fatalf("%d lines, want 3: %s", len(lines), data)
	}
	for i, bl := range lines {
		if bl.Index != i {
			t.Fatalf("line %d has index %d; stream must preserve input order", i, bl.Index)
		}
	}
	if lines[0].Report == nil || !lines[0].Report.Consistent {
		t.Fatalf("line 0: %+v, want consistent report", lines[0])
	}
	if lines[1].Error == "" || lines[1].Report != nil {
		t.Fatalf("line 1: %+v, want per-line error", lines[1])
	}
	if lines[2].Name != "n2" || lines[2].Report == nil || lines[2].Report.Consistent {
		t.Fatalf("line 2: %+v, want named inconsistent report", lines[2])
	}
}

func TestBatchTruncationIsVisible(t *testing.T) {
	reg := metrics.NewRegistry()
	cache := bagconsist.NewCache(64)
	svc, err := New(Config{Checker: bagconsist.New(bagconsist.WithParallelism(2), bagconsist.WithSharedCache(cache)), Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	h, err := NewHandler(ServerConfig{Service: svc, MaxBatchLines: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(h)
	defer ts.Close()
	defer svc.Drain(context.Background())

	line := strings.TrimSpace(strings.ReplaceAll(pairJSON(t, consistentPairText), "\n", " "))
	body := strings.Repeat(line+"\n", 4)
	resp, data := postBody(t, ts.URL+"/v1/batch", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if !bytes.Contains(data, []byte("batch truncated at 2 lines")) {
		t.Fatalf("truncation not reported:\n%s", data)
	}
	// The tail line must carry the stream-failure marker index -1, never
	// a valid slot index a client could misattribute.
	if !bytes.Contains(data, []byte(`{"index":-1,"error":"batch truncated`)) {
		t.Fatalf("truncation line not marked with index -1:\n%s", data)
	}
}

// TestBatchAnswersLinesSentAfterAnAnswer is an interactive batch client:
// it sends its second NDJSON line only after reading the answer to its
// first. Answers stream while the request body is still open, so the
// handler must read and write at once. An HTTP/1 handler that does not
// enable full duplex blocks its first flush discarding the unread body.
func TestBatchAnswersLinesSentAfterAnAnswer(t *testing.T) {
	ts := newTestServer(t, Config{})
	line := strings.TrimSpace(strings.ReplaceAll(pairJSON(t, consistentPairText), "\n", " ")) + "\n"
	rest, feed := io.Pipe()
	defer feed.Close()
	body := io.MultiReader(strings.NewReader(line), rest)
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/batch", body)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/x-ndjson")

	type result struct {
		lines []BatchLine
		err   error
	}
	done := make(chan result, 1)
	go func() {
		var res result
		defer func() { done <- res }()
		resp, err := ts.Client().Do(req)
		if res.err = err; err != nil {
			return
		}
		defer resp.Body.Close()
		rd := bufio.NewReader(resp.Body)
		for i := 0; ; i++ {
			if i == 1 {
				// The second line goes out only after the first answer.
				if _, res.err = io.WriteString(feed, line); res.err != nil {
					return
				}
				feed.Close()
			}
			text, err := rd.ReadBytes('\n')
			if len(bytes.TrimSpace(text)) > 0 {
				var bl BatchLine
				if res.err = json.Unmarshal(text, &bl); res.err != nil {
					return
				}
				res.lines = append(res.lines, bl)
			}
			if err != nil {
				if err != io.EOF {
					res.err = err
				}
				return
			}
		}
	}()

	var res result
	select {
	case res = <-done:
	case <-time.After(10 * time.Second):
		feed.CloseWithError(errors.New("test timed out"))
		t.Fatal("no answer to the first line within 10s: the first flush waits on the unread body")
	}
	if res.err != nil {
		t.Fatal(res.err)
	}
	if len(res.lines) != 2 {
		t.Fatalf("%d answers, want 2: %+v", len(res.lines), res.lines)
	}
	for i, bl := range res.lines {
		if bl.Index != i || bl.Error != "" || bl.Report == nil || !bl.Report.Consistent {
			t.Fatalf("answer %d: %+v, want a consistent report at index %d", i, bl, i)
		}
	}
}

func TestHealthzAndMetrics(t *testing.T) {
	ts := newTestServer(t, Config{})
	// Generate traffic so counters move, twice for a cache hit.
	for range 2 {
		resp, data := postBody(t, ts.URL+"/v1/check", consistentPairText)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("check: %d %s", resp.StatusCode, data)
		}
	}

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var hs HealthStatus
	err = json.NewDecoder(resp.Body).Decode(&hs)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || hs.Status != "ok" {
		t.Fatalf("healthz: %d %+v", resp.StatusCode, hs)
	}
	if hs.QueueCapacity != DefaultQueueDepth || hs.Version == "" {
		t.Fatalf("healthz fields: %+v", hs)
	}
	if hs.Cache == nil || hs.Cache.Hits == 0 {
		t.Fatalf("healthz cache stats: %+v, want nonzero hits", hs.Cache)
	}

	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	resp.Body.Close()
	out := buf.String()
	for _, want := range []string{
		`bagcd_requests_total{kind="global",outcome="ok"} 2`,
		"bagcd_request_seconds_bucket",
		"bagcd_queue_depth",
		"bagcd_cache_hits_total 1",
		`bagcd_http_requests_total{path="/v1/check",code="200"} 2`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics missing %q in:\n%s", want, out)
		}
	}
}

func TestHealthzDrainingIs503(t *testing.T) {
	ts := newTestServer(t, Config{})
	if err := ts.svc.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var hs HealthStatus
	err = json.NewDecoder(resp.Body).Decode(&hs)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusServiceUnavailable || hs.Status != "draining" {
		t.Fatalf("draining healthz: %d %+v", resp.StatusCode, hs)
	}
	resp, data := postBody(t, ts.URL+"/v1/check", consistentPairText)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining check: %d %s, want 503", resp.StatusCode, data)
	}
}
