package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"bagconsistency/internal/bagio"
	"bagconsistency/internal/gen"
	"bagconsistency/internal/hypergraph"
	"bagconsistency/internal/metrics"
	"bagconsistency/internal/service"
	"bagconsistency/pkg/bagclient"
	"bagconsistency/pkg/bagconsist"
)

// bootStack serves an assembled service/handler pair on a random port
// and returns a client for it plus a drain func.
func bootStack(t *testing.T, svc *service.Service, handler http.Handler) (*bagclient.Client, func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &http.Server{Handler: handler}
	go srv.Serve(ln)
	cli, err := bagclient.New("http://" + ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	return cli, func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = svc.Drain(ctx)
		_ = srv.Shutdown(ctx)
	}
}

// bootDaemon runs the exact main() serving stack on a random port.
func bootDaemon(t *testing.T, opt *options) (*bagclient.Client, func()) {
	t.Helper()
	svc, handler, st, err := buildServer(opt)
	if err != nil {
		t.Fatal(err)
	}
	cli, drain := bootStack(t, svc, handler)
	return cli, func() {
		drain()
		if st != nil {
			if err := st.Close(); err != nil {
				t.Errorf("closing store: %v", err)
			}
		}
	}
}

// clientBags converts a generated collection into client named bags.
func clientBags(t *testing.T, coll *bagconsist.Collection) []bagclient.NamedBag {
	t.Helper()
	var out []bagclient.NamedBag
	for i, b := range coll.Bags() {
		out = append(out, bagclient.NamedBag{Name: fmt.Sprintf("b%d", i), Bag: b})
	}
	return out
}

// TestServingSmoke is the CI smoke load: 200 concurrent mixed
// check/pair/batch requests through pkg/bagclient against the daemon's
// full stack on a random port — zero request errors, then a /metrics
// scrape showing request counts and nonzero cache hits.
func TestServingSmoke(t *testing.T) {
	opt := &options{
		addr:        "127.0.0.1:0",
		queueDepth:  1024, // deep enough that this load never sheds
		cacheSize:   4096,
		maxNodes:    10_000_000,
		maxTimeout:  time.Minute,
		parallelism: 8,
	}
	cli, drain := bootDaemon(t, opt)
	defer drain()

	// Three distinct global instances (repeats hit the shared cache), one
	// pair instance, and batches mixing all three.
	rng := rand.New(rand.NewSource(2026))
	var globals [][]bagclient.NamedBag
	for range 3 {
		coll, _, err := gen.RandomConsistent(rng, hypergraph.Star(4), 12, 64, 3)
		if err != nil {
			t.Fatal(err)
		}
		globals = append(globals, clientBags(t, coll))
	}
	pr, ps, err := gen.Section3Family(3)
	if err != nil {
		t.Fatal(err)
	}
	pairR := bagclient.NamedBag{Name: "r", Bag: pr}
	pairS := bagclient.NamedBag{Name: "s", Bag: ps}

	const totalRequests = 200
	errCh := make(chan error, totalRequests)
	var wg sync.WaitGroup
	ctx := context.Background()
	for i := range totalRequests {
		wg.Add(1)
		go func() {
			defer wg.Done()
			switch i % 5 {
			case 0, 1, 2: // global checks over repeating instances
				rep, err := cli.Check(ctx, globals[i%3])
				if err == nil && !rep.Consistent {
					err = fmt.Errorf("global request %d: inconsistent", i)
				}
				errCh <- err
			case 3: // pair checks
				rep, err := cli.CheckPair(ctx, pairR, pairS)
				if err == nil && !rep.Consistent {
					err = fmt.Errorf("pair request %d: inconsistent", i)
				}
				errCh <- err
			default: // streaming batches of three collections
				res, err := cli.CheckBatch(ctx, [][]bagclient.NamedBag{globals[0], globals[1], globals[2]})
				if err == nil {
					for _, r := range res {
						if r.Err != "" {
							err = fmt.Errorf("batch request %d slot %d: %s", i, r.Index, r.Err)
							break
						}
						if r.Report == nil || !r.Report.Consistent {
							err = fmt.Errorf("batch request %d slot %d: bad report", i, r.Index)
							break
						}
					}
				}
				errCh <- err
			}
		}()
	}
	wg.Wait()
	close(errCh)
	var failures int
	for err := range errCh {
		if err != nil {
			failures++
			t.Errorf("request error: %v", err)
		}
	}
	if failures > 0 {
		t.Fatalf("%d/%d requests failed", failures, totalRequests)
	}

	scrape, err := cli.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	assertMetric := func(name string, pattern string) {
		t.Helper()
		re := regexp.MustCompile(pattern)
		if !re.MatchString(scrape) {
			t.Errorf("metric %s missing or zero (pattern %q) in scrape:\n%s", name, pattern, scrape)
		}
	}
	// Request and latency metrics moved, nothing shed, and repeats of the
	// three global instances hit the shared cache.
	assertMetric("requests ok", `bagcd_requests_total\{kind="global",outcome="ok"\} [1-9]`)
	assertMetric("pair requests ok", `bagcd_requests_total\{kind="pair",outcome="ok"\} [1-9]`)
	assertMetric("latency histogram", `bagcd_request_seconds_count\{kind="global"\} [1-9]`)
	assertMetric("no sheds", `bagcd_requests_shed_total 0`)
	assertMetric("cache hits", `bagcd_cache_hits_total [1-9]`)

	h, err := cli.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Cache == nil || h.Cache.Hits == 0 {
		t.Fatalf("health after load: %+v", h)
	}
}

// TestSmokeShedsCleanly saturates a 1-worker, depth-1 stack with slow
// integer searches, then asserts further requests shed as clean 503
// StatusErrors with Retry-After (the only allowed 5xx) rather than
// transport failures — and that successes resume once pressure lifts.
func TestSmokeShedsCleanly(t *testing.T) {
	// Assembled by hand (not buildServer) so the checker can be pinned to
	// the deterministic slow recipe: the integer search over ~2^16
	// margins runs for many seconds without cancellation.
	reg := metrics.NewRegistry()
	checker := bagconsist.New(
		bagconsist.WithParallelism(1),
		bagconsist.WithMaxNodes(2_000_000_000),
	)
	svc, err := service.New(service.Config{Checker: checker, QueueDepth: 1, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	handler, err := service.NewHandler(service.ServerConfig{Service: svc})
	if err != nil {
		t.Fatal(err)
	}
	cli, drain := bootStack(t, svc, handler)
	defer drain()

	rng := rand.New(rand.NewSource(42))
	inst, err := gen.RandomThreeDCT(rng, 3, 1<<16)
	if err != nil {
		t.Fatal(err)
	}
	slowColl, err := inst.ToCollection()
	if err != nil {
		t.Fatal(err)
	}
	slowBags := clientBags(t, slowColl)

	// No retries: we want to observe raw 503s.
	raw, err := bagclient.New(cli.BaseURL(), bagclient.WithMaxRetries(0))
	if err != nil {
		t.Fatal(err)
	}

	// Saturate: one slow search in flight, one queued behind it. The
	// second starts only once the worker holds the first, or the 1-deep
	// queue would shed it.
	satCtx, releaseSaturation := context.WithCancel(context.Background())
	defer releaseSaturation()
	var satWG sync.WaitGroup
	deadline := time.Now().Add(10 * time.Second)
	for range 2 {
		satWG.Add(1)
		go func() {
			defer satWG.Done()
			_, _ = raw.Check(satCtx, slowBags)
		}()
		for svc.Inflight() < 1 && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
	}
	for (svc.Inflight() < 1 || svc.QueueDepth() < 1) && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if svc.Inflight() < 1 || svc.QueueDepth() < 1 {
		t.Fatalf("saturation not reached: inflight=%d queued=%d", svc.Inflight(), svc.QueueDepth())
	}

	// Every additional request must shed as a recognizable 503.
	for i := range 10 {
		_, err := raw.Check(context.Background(), slowBags)
		if !bagclient.IsOverloaded(err) {
			t.Fatalf("request %d: err = %v, want overloaded 503", i, err)
		}
	}

	// Pressure lifts: the abandoned searches are discarded and an easy
	// request (retries on) goes through.
	releaseSaturation()
	satWG.Wait()
	rng2 := rand.New(rand.NewSource(1))
	coll, _, err := gen.RandomConsistent(rng2, hypergraph.Star(4), 8, 16, 3)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := cli.Check(context.Background(), clientBags(t, coll))
	if err != nil || !rep.Consistent {
		t.Fatalf("post-pressure check: rep=%+v err=%v", rep, err)
	}
}

// TestBagcdBinarySIGTERMDrain builds the real binary, boots it on a
// random port, floods it with requests, sends SIGTERM mid-flight, and
// asserts every launched request gets a clean HTTP response (200, or 503
// once draining) and the process exits 0 — the zero-drop restart path.
func TestBagcdBinarySIGTERMDrain(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skipping binary exec test")
	}
	bin := filepath.Join(t.TempDir(), "bagcd")
	build := exec.Command("go", "build", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Skipf("cannot build bagcd binary here: %v\n%s", err, out)
	}

	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-queue-depth", "1024", "-parallelism", "2")
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = cmd.Stdout
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()

	// The first log line carries the resolved random port.
	sc := bufio.NewScanner(stdout)
	addrRe := regexp.MustCompile(`listening on ([^"\s]+)`)
	var addr string
	for sc.Scan() {
		if m := addrRe.FindStringSubmatch(sc.Text()); m != nil {
			addr = m[1]
			break
		}
	}
	if addr == "" {
		t.Fatal("daemon never logged its listen address")
	}
	go func() { // drain the rest of the pipe so the child never blocks on it
		for sc.Scan() {
		}
	}()

	cli, err := bagclient.New("http://"+addr, bagclient.WithMaxRetries(0))
	if err != nil {
		t.Fatal(err)
	}
	h, err := cli.Health(context.Background())
	if err != nil || h.Status != "ok" {
		t.Fatalf("healthz: %+v, %v", h, err)
	}

	// Moderately sized instances so some requests are genuinely in flight
	// or queued when the signal lands.
	text := smokeInstanceText(t)
	const n = 32
	results := make(chan error, n)
	var wg sync.WaitGroup
	for range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post("http://"+addr+"/v1/check", "text/plain", strings.NewReader(text))
			if err != nil {
				results <- fmt.Errorf("transport error (dropped in-flight request): %w", err)
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusServiceUnavailable {
				results <- fmt.Errorf("status %d", resp.StatusCode)
				return
			}
			results <- nil
		}()
	}
	// Long enough for every loopback connection to establish (requests
	// arriving after drain get clean 503s, but a connection attempted
	// after the listener closes would be a refused transport error),
	// short enough that plenty of work is still queued and in flight.
	time.Sleep(250 * time.Millisecond)
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	close(results)
	for err := range results {
		if err != nil {
			t.Errorf("request during drain: %v", err)
		}
	}

	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("daemon exited non-zero after SIGTERM drain: %v", err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("daemon never exited after SIGTERM")
	}
}

// smokeInstanceText renders a star instance in the text wire format.
func smokeInstanceText(t *testing.T) string {
	t.Helper()
	rng := rand.New(rand.NewSource(3))
	coll, _, err := gen.RandomConsistent(rng, hypergraph.Star(6), 96, 512, 4)
	if err != nil {
		t.Fatal(err)
	}
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

func TestVersionFlag(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-version"}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "bagcd ") {
		t.Fatalf("version output %q", buf.String())
	}
}
