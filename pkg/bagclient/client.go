// Package bagclient is the typed Go client for the bagcd daemon: it
// speaks the bagio JSON wire format, plumbs contexts through every call,
// retries load-shed (503) responses with the server's Retry-After hint,
// and returns the same bagconsist.Report values the embedded API does —
// so code can move between in-process checking and remote checking by
// swapping a Checker for a Client.
//
//	cli, _ := bagclient.New("http://localhost:8080")
//	rep, err := cli.Check(ctx, []bagclient.NamedBag{
//		{Name: "orders", Bag: orders},
//		{Name: "totals", Bag: totals},
//	})
package bagclient

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"bagconsistency/internal/bagio"
	"bagconsistency/internal/service"
	"bagconsistency/pkg/bagconsist"
)

// NamedBag pairs a bag with the name it carries on the wire.
type NamedBag struct {
	Name string
	Bag  *bagconsist.Bag
}

// BatchResult is one line of a batch response: the input collection's
// index and name, and either its Report or the per-line error message.
type BatchResult struct {
	Index  int
	Name   string
	Report *bagconsist.Report
	Err    string
}

// Health mirrors the daemon's GET /healthz body.
type Health = service.HealthStatus

// WorkloadStatus mirrors the daemon's GET /debug/workload body.
type WorkloadStatus = service.WorkloadStatus

// StatusError is a non-2xx daemon response after retries are exhausted.
type StatusError struct {
	Code    int
	Message string
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("bagclient: server returned %d: %s", e.Code, e.Message)
}

// IsOverloaded reports whether err is a load-shed (503) response that
// survived every retry.
func IsOverloaded(err error) bool {
	var se *StatusError
	return errors.As(err, &se) && se.Code == http.StatusServiceUnavailable
}

// Client talks to one bagcd base URL. It is immutable after New and safe
// for concurrent use.
type Client struct {
	base       *url.URL
	hc         *http.Client
	maxRetries int
	backoff    time.Duration
	maxWait    time.Duration
	jitter     float64
	binary     bool
}

// Option configures a Client.
type Option func(*Client)

// WithHTTPClient swaps the underlying http.Client (custom transports,
// TLS, proxies). The default is a plain &http.Client{} — no client-side
// timeout, deadlines come from contexts.
func WithHTTPClient(hc *http.Client) Option {
	return func(c *Client) { c.hc = hc }
}

// WithMaxRetries bounds retries of load-shed responses (default 3;
// 0 disables retrying).
func WithMaxRetries(n int) Option {
	return func(c *Client) { c.maxRetries = n }
}

// WithRetryBackoff sets the base wait used when a 503 carries no
// Retry-After hint; attempt k waits base<<k (default 100ms).
func WithRetryBackoff(d time.Duration) Option {
	return func(c *Client) { c.backoff = d }
}

// WithMaxRetryWait caps any single retry wait, hinted or not
// (default 5s).
func WithMaxRetryWait(d time.Duration) Option {
	return func(c *Client) { c.maxWait = d }
}

// WithRetryJitter sets the jitter fraction f in [0, 1] applied to every
// retry wait: the actual wait is drawn uniformly from
// [wait·(1-f), wait]. The default is 0.5.
//
// Jitter exists because a shed is correlated across callers: the daemon
// that 503'd one request 503'd everyone who arrived that instant, and a
// deterministic backoff (or everyone honoring the same Retry-After hint)
// has the whole fleet retry in one synchronized wave that re-overloads
// the daemon exactly when it was recovering. 0 disables jitter for tests
// that need deterministic waits.
func WithRetryJitter(f float64) Option {
	return func(c *Client) {
		if f < 0 {
			f = 0
		}
		if f > 1 {
			f = 1
		}
		c.jitter = f
	}
}

// WithBinaryWire makes Check and CheckPair upload instances in the
// binary columnar bagcol format (Content-Type application/x-bagcol)
// instead of JSON. The daemon decodes bagcol without per-tuple parsing,
// so this is the right wire for bulk instances; responses are unchanged
// (reports are always JSON). CheckBatch keeps the NDJSON wire — the
// batch endpoint is line-oriented and does not accept binary bodies.
func WithBinaryWire() Option {
	return func(c *Client) { c.binary = true }
}

// New builds a client for the daemon at baseURL (e.g.
// "http://10.0.0.7:8080").
func New(baseURL string, opts ...Option) (*Client, error) {
	u, err := url.Parse(baseURL)
	if err != nil {
		return nil, fmt.Errorf("bagclient: bad base URL: %w", err)
	}
	if u.Scheme == "" || u.Host == "" {
		return nil, fmt.Errorf("bagclient: base URL %q needs scheme and host", baseURL)
	}
	c := &Client{
		base:       u,
		hc:         &http.Client{},
		maxRetries: 3,
		backoff:    100 * time.Millisecond,
		maxWait:    5 * time.Second,
		jitter:     0.5,
	}
	for _, o := range opts {
		o(c)
	}
	return c, nil
}

// BaseURL returns the daemon base URL the client was built with.
func (c *Client) BaseURL() string { return c.base.String() }

// requestParams collects everything a RequestOption may shape on one
// call: query parameters and request headers.
type requestParams struct {
	query  url.Values
	header http.Header
}

// RequestOption tunes one call.
type RequestOption func(*requestParams)

// WithTimeout asks the server to bound this request's compute, independent
// of the client context's own deadline.
func WithTimeout(d time.Duration) RequestOption {
	return func(p *requestParams) {
		p.query.Set("timeout_ms", strconv.FormatInt(d.Milliseconds(), 10))
	}
}

// WithTraceParent attaches a W3C traceparent header
// ("00-<32 hex trace id>-<16 hex span id>-01") to the call. A bagcd that
// receives it records the request's phase-span tree — queue wait, cache
// tiers, engine phases down to the ILP search — retrievable from
// GET /debug/traces and returned inline as Report.Phases. See
// docs/OBSERVABILITY.md.
func WithTraceParent(tp string) RequestOption {
	return func(p *requestParams) { p.header.Set("traceparent", tp) }
}

// endpoint resolves the request URL and headers for one call.
func (c *Client) endpoint(path string, opts []RequestOption) (string, http.Header) {
	u := *c.base
	u.Path = strings.TrimRight(u.Path, "/") + path
	p := requestParams{query: u.Query(), header: make(http.Header)}
	for _, o := range opts {
		o(&p)
	}
	u.RawQuery = p.query.Encode()
	return u.String(), p.header
}

// encodeBags renders the request body in the client's configured wire
// format, returning the bytes and their Content-Type.
func (c *Client) encodeBags(bags []NamedBag) ([]byte, string, error) {
	named := make([]bagio.NamedBag, len(bags))
	for i, nb := range bags {
		if nb.Bag == nil {
			return nil, "", fmt.Errorf("bagclient: bag %d (%q) is nil", i, nb.Name)
		}
		named[i] = bagio.NamedBag{Name: nb.Name, Bag: nb.Bag}
	}
	var buf bytes.Buffer
	if c.binary {
		if err := bagio.EncodeColumnar(&buf, "", named); err != nil {
			return nil, "", err
		}
		return buf.Bytes(), bagio.ContentTypeColumnar, nil
	}
	if err := bagio.EncodeJSON(&buf, named); err != nil {
		return nil, "", err
	}
	return buf.Bytes(), "application/json", nil
}

// do POSTs body and retries 503s; on success the caller owns resp.Body.
func (c *Client) do(ctx context.Context, method, url string, header http.Header, body []byte) (*http.Response, error) {
	for attempt := 0; ; attempt++ {
		req, err := http.NewRequestWithContext(ctx, method, url, bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		for k, vs := range header {
			req.Header[k] = vs
		}
		if body != nil && req.Header.Get("Content-Type") == "" {
			req.Header.Set("Content-Type", "application/json")
		}
		resp, err := c.hc.Do(req)
		if err != nil {
			return nil, err
		}
		if resp.StatusCode != http.StatusServiceUnavailable || attempt >= c.maxRetries {
			return resp, nil
		}
		wait := c.retryWait(resp, attempt)
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		timer := time.NewTimer(wait)
		select {
		case <-timer.C:
		case <-ctx.Done():
			timer.Stop()
			return nil, ctx.Err()
		}
	}
}

// retryWait derives the wait before retrying a shed request: the server's
// Retry-After when present, exponential backoff otherwise, capped either
// way, then jittered (WithRetryJitter) so a fleet of clients shed by the
// same overloaded daemon does not retry in one synchronized wave.
func (c *Client) retryWait(resp *http.Response, attempt int) time.Duration {
	wait := c.backoff << attempt
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		if secs, err := strconv.Atoi(ra); err == nil && secs >= 0 {
			wait = time.Duration(secs) * time.Second
		}
	}
	if wait > c.maxWait {
		wait = c.maxWait
	}
	if c.jitter > 0 && wait > 0 {
		// Uniform in [wait·(1-jitter), wait]. The global rand source is
		// concurrency-safe and deliberately NOT seeded per client: two
		// clients in one process must not jitter identically either.
		span := float64(wait) * c.jitter
		wait -= time.Duration(rand.Int63n(int64(span) + 1))
	}
	return wait
}

// decodeError turns a non-2xx response into a StatusError carrying the
// server's JSON error envelope (or raw body when it isn't one).
func decodeError(resp *http.Response) error {
	data, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	var eb struct {
		Error string `json:"error"`
	}
	msg := strings.TrimSpace(string(data))
	if json.Unmarshal(data, &eb) == nil && eb.Error != "" {
		msg = eb.Error
	}
	return &StatusError{Code: resp.StatusCode, Message: msg}
}

func (c *Client) postReport(ctx context.Context, path string, bags []NamedBag, opts []RequestOption) (*bagconsist.Report, error) {
	body, contentType, err := c.encodeBags(bags)
	if err != nil {
		return nil, err
	}
	url, header := c.endpoint(path, opts)
	header.Set("Content-Type", contentType)
	resp, err := c.do(ctx, http.MethodPost, url, header, body)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, decodeError(resp)
	}
	var rep bagconsist.Report
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		return nil, fmt.Errorf("bagclient: bad report body: %w", err)
	}
	return &rep, nil
}

// Check decides global consistency of the collection formed by the bags
// (one hyperedge per bag schema) — POST /v1/check.
func (c *Client) Check(ctx context.Context, bags []NamedBag, opts ...RequestOption) (*bagconsist.Report, error) {
	return c.postReport(ctx, "/v1/check", bags, opts)
}

// CheckPair decides consistency of exactly two bags — POST /v1/check/pair.
func (c *Client) CheckPair(ctx context.Context, r, s NamedBag, opts ...RequestOption) (*bagconsist.Report, error) {
	return c.postReport(ctx, "/v1/check/pair", []NamedBag{r, s}, opts)
}

// CheckBatch streams the collections through POST /v1/batch and returns
// one BatchResult per collection, index-aligned with the input. Per-line
// failures (bad instance, shed under pressure) land in the slot's Err —
// mirroring bagconsist.CheckBatch's Report.Error semantics — and never
// abort the rest of the batch.
func (c *Client) CheckBatch(ctx context.Context, collections [][]NamedBag, opts ...RequestOption) ([]BatchResult, error) {
	var body bytes.Buffer
	for i, coll := range collections {
		named := make([]bagio.NamedBag, len(coll))
		for j, nb := range coll {
			if nb.Bag == nil {
				return nil, fmt.Errorf("bagclient: collection %d bag %d is nil", i, j)
			}
			named[j] = bagio.NamedBag{Name: nb.Name, Bag: nb.Bag}
		}
		arr, err := bagio.ToJSONBags(named)
		if err != nil {
			return nil, err
		}
		line, err := json.Marshal(arr)
		if err != nil {
			return nil, err
		}
		body.Write(line)
		body.WriteByte('\n')
	}
	url, header := c.endpoint("/v1/batch", opts)
	resp, err := c.do(ctx, http.MethodPost, url, header, body.Bytes())
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, decodeError(resp)
	}

	results := make([]BatchResult, len(collections))
	for i := range results {
		results[i] = BatchResult{Index: i, Err: "missing from response"}
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 16<<20)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		var line service.BatchLine
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			return results, fmt.Errorf("bagclient: bad batch line: %w", err)
		}
		if line.Index < 0 || line.Index >= len(results) {
			// Index -1 is the server's stream-level failure line
			// (truncation, body read error); any other out-of-range index
			// is a malformed stream. Both abort rather than being
			// misattributed to one slot.
			return results, fmt.Errorf("bagclient: batch stream error: %s", line.Error)
		}
		results[line.Index] = BatchResult{Index: line.Index, Name: line.Name, Report: line.Report, Err: line.Error}
	}
	if err := sc.Err(); err != nil {
		return results, err
	}
	return results, nil
}

// Health fetches GET /healthz. A draining daemon answers 503 but still
// returns its status body, so Health reports it rather than failing.
func (c *Client) Health(ctx context.Context) (*Health, error) {
	url, _ := c.endpoint("/healthz", nil)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusServiceUnavailable {
		return nil, decodeError(resp)
	}
	var h Health
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		return nil, fmt.Errorf("bagclient: bad healthz body: %w", err)
	}
	return &h, nil
}

// Workload fetches GET /debug/workload: hot-key analytics plus, when
// the daemon runs it, flight-recorder state. topN
// bounds the hot-key table (0 = all tracked keys, < 0 keeps the server
// default). A daemon running with -hotkey-k 0 answers 404, surfaced as
// a StatusError.
func (c *Client) Workload(ctx context.Context, topN int) (*WorkloadStatus, error) {
	url, _ := c.endpoint("/debug/workload", nil)
	if topN >= 0 {
		url += "?top=" + strconv.Itoa(topN)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, decodeError(resp)
	}
	var ws WorkloadStatus
	if err := json.NewDecoder(resp.Body).Decode(&ws); err != nil {
		return nil, fmt.Errorf("bagclient: bad workload body: %w", err)
	}
	return &ws, nil
}

// Metrics fetches the raw Prometheus exposition from GET /metrics.
func (c *Client) Metrics(ctx context.Context) (string, error) {
	url, _ := c.endpoint("/metrics", nil)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return "", err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", decodeError(resp)
	}
	data, err := io.ReadAll(resp.Body)
	return string(data), err
}
