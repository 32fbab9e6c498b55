package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptrace"
	"sync"
	"sync/atomic"
	"time"
)

// sample is one completed request of a closed-loop phase.
type sample struct {
	seq    int32 // position in the sequence (before wrapping)
	status int32 // HTTP status, 0 on a transport error
	slice  int32 // load slice it was sent in
	start  time.Duration
	lat    time.Duration // send to full response body
	resp   []byte        // response body, kept for the off-clock check
	traced bool          // sent with a traceparent header
}

// phaseResult is everything one closed-loop phase observed.
type phaseResult struct {
	samples   []sample
	slices    []slice       // load slices, with their speed but no answer counts
	elapsed   time.Duration // load time: first send to last response, summed over slices
	exhausted bool          // a fresh pool ran out before the deadline
	reqBytes  int64
}

// loopConfig shapes one closed-loop phase.
type loopConfig struct {
	base     string
	client   *http.Client
	in       *inputs
	seq      []request
	clients  int
	duration time.Duration
	// ref, when non-nil, cuts the phase into load slices of loadSlice and
	// measures the machine's speed with it before the first slice and
	// after each; otherwise the phase is one slice at speed 1.
	ref *reference
	// traceEvery, when positive, sends a W3C traceparent on every
	// traceEvery-th request, so the daemon returns its phase spans.
	traceEvery int
	// spans, when non-nil, records client-side spans for every request.
	spans *spanLog
	// wrap cycles through seq when it runs out; otherwise running out
	// ends the phase.
	wrap bool
}

// arena holds response bodies in large chunks, so keeping tens of
// thousands of them costs the collector next to nothing.
type arena struct {
	cur []byte
}

func (a *arena) keep(p []byte) []byte {
	if len(p) > cap(a.cur)-len(a.cur) {
		a.cur = make([]byte, 0, max(4<<20, len(p)))
	}
	start := len(a.cur)
	a.cur = append(a.cur, p...)
	return a.cur[start:len(a.cur):len(a.cur)]
}

// closedLoop runs cfg.clients senders over keep-alive connections, each
// sending its next request only after the previous answer has been read
// in full. Requests are taken from cfg.seq in order. The phase stops
// sending at cfg.duration; a fresh sequence that runs out stops it early.
// A scaled phase stops sending at the end of each load slice, waits for
// every answer, and measures the machine's speed before going on.
func closedLoop(ctx context.Context, cfg loopConfig) (*phaseResult, error) {
	var next atomic.Int64
	var stop, exhausted atomic.Bool
	res := &phaseResult{}
	perClient := make([][]sample, cfg.clients)
	mems := make([]arena, cfg.clients)
	bufs := make([]bytes.Buffer, cfg.clients)
	errs := make([]error, cfg.clients)
	var reqBytes atomic.Int64
	speed := 1.0
	if cfg.ref != nil {
		var err error
		if speed, err = cfg.ref.speed(); err != nil {
			return nil, err
		}
	}
	t0 := time.Now()
	deadline := t0.Add(cfg.duration)
	for sl := int32(0); !stop.Load() && ctx.Err() == nil && time.Now().Before(deadline); sl++ {
		end := deadline
		if sliceEnd := time.Now().Add(loadSlice); cfg.ref != nil && sliceEnd.Before(end) {
			end = sliceEnd
		}
		var wg sync.WaitGroup
		for c := range cfg.clients {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for !stop.Load() && ctx.Err() == nil && time.Now().Before(end) {
					k := next.Add(1) - 1
					idx := k
					if idx >= int64(len(cfg.seq)) {
						if !cfg.wrap {
							exhausted.Store(true)
							stop.Store(true)
							return
						}
						idx %= int64(len(cfg.seq))
					}
					r := cfg.seq[idx]
					traced := cfg.traceEvery > 0 && k%int64(cfg.traceEvery) == 0
					s, err := send(ctx, cfg, &bufs[c], r, k, traced, t0)
					if err != nil {
						errs[c] = err
						stop.Store(true)
						return
					}
					s.slice = sl
					s.resp = mems[c].keep(bufs[c].Bytes())
					reqBytes.Add(int64(len(cfg.in.bodies[r.body])))
					perClient[c] = append(perClient[c], s)
				}
			}()
		}
		wg.Wait()
		cur := slice{from: -1}
		for _, ss := range perClient {
			for i := len(ss) - 1; i >= 0 && ss[i].slice == sl; i-- {
				if cur.from < 0 || ss[i].start < cur.from {
					cur.from = ss[i].start
				}
				cur.to = max(cur.to, ss[i].start+ss[i].lat)
			}
		}
		before := speed
		if cfg.ref != nil {
			var err error
			if speed, err = cfg.ref.speed(); err != nil {
				return nil, err
			}
		}
		cur.from = max(cur.from, 0)
		cur.speed = (before + speed) / 2
		res.slices = append(res.slices, cur)
		res.elapsed += cur.to - cur.from
	}
	for c, ss := range perClient {
		if errs[c] != nil {
			return nil, errs[c]
		}
		res.samples = append(res.samples, ss...)
	}
	res.reqBytes = reqBytes.Load()
	res.exhausted = exhausted.Load()
	return res, ctx.Err()
}

// send issues one request and reads the response body into buf. Transport
// errors become a status-0 sample; only request construction fails.
func send(ctx context.Context, cfg loopConfig, buf *bytes.Buffer, r request, k int64, traced bool, t0 time.Time) (sample, error) {
	// The transport calls these hooks from its own goroutines.
	var wrote, firstByte atomic.Pointer[time.Time]
	rctx := ctx
	if cfg.spans != nil {
		rctx = httptrace.WithClientTrace(ctx, &httptrace.ClientTrace{
			WroteRequest:         func(httptrace.WroteRequestInfo) { now := time.Now(); wrote.Store(&now) },
			GotFirstResponseByte: func() { now := time.Now(); firstByte.Store(&now) },
		})
	}
	req, err := http.NewRequestWithContext(rctx, http.MethodPost, cfg.base+r.path, bytes.NewReader(cfg.in.bodies[r.body]))
	if err != nil {
		return sample{}, err
	}
	req.Header.Set("Content-Type", r.ctype)
	if traced {
		req.Header.Set("traceparent", fmt.Sprintf("00-%032x-%016x-01", k+1, k+1))
	}
	buf.Reset()
	start := time.Now()
	resp, err := cfg.client.Do(req)
	status := int32(0)
	if err == nil {
		_, err = io.Copy(buf, resp.Body)
		resp.Body.Close()
		if err == nil {
			status = int32(resp.StatusCode)
		}
	}
	end := time.Now()
	if cfg.spans != nil {
		cfg.spans.client(k, start, wrote.Load(), firstByte.Load(), end)
	}
	return sample{seq: int32(k), status: status, start: start.Sub(t0), lat: end.Sub(start), traced: traced}, nil
}

// newClient returns an HTTP client keeping exactly conns keep-alive
// connections to the daemon.
func newClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConns:        conns,
		MaxIdleConnsPerHost: conns,
		MaxConnsPerHost:     conns,
		DisableCompression:  true,
	}}
}
