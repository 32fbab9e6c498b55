package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// replayLayers are the per-layer metrics the in-process replay measures,
// with their units. Each is a per-request mean over the replayed
// requests, counting a layer only where the daemon's path reaches it.
var replayLayers = []struct{ name, unit string }{
	{"bagio.decode_us", "us"},
	{"bagio.decode_allocs", "count"},
	{"canon.fingerprint_us", "us"},
	{"canon.fingerprint_allocs", "count"},
	{"cache.hit_us", "us"},
	{"cache.hit_allocs", "count"},
	{"cache.miss_overhead_us", "us"},
	{"hypergraph.gyo_us", "us"},
	{"core.check_us", "us"},
	{"core.pairwise_us", "us"},
	{"core.acyclic-compose_us", "us"},
	{"core.flow-witness_us", "us"},
	{"core.program-build_us", "us"},
	{"ilp.search_us", "us"},
	{"ilp.nodes", "count"},
	{"report.encode_us", "us"},
	{"verify.witness_us", "us"},
}

// phaseSpans are the daemon span names whose self time, read from
// Report.Phases of the traceparent-sampled requests, is reported beside
// the replay's numbers as phase.<name>_us.
var phaseSpans = []string{
	"http.decode", "queue.wait", "canon.fingerprint", "cache.ram", "cache.store", "compute",
	"engine.marginals", "engine.pairwise", "engine.acyclic-compose", "engine.pairnet-build",
	"engine.maxflow", "engine.program-build", "engine.ilp-search",
}

// tracedPass runs the separate traced pass: the same closed loop against
// a freshly started and warmed daemon with the benchmark's client spans
// on and a traceparent on every traceEvery-th request, then the
// in-process replay of the same sequence. It returns the traced phase and
// every per-layer metric except fail_frac.
func (b *bench) tracedPass(ctx context.Context, plain *phase) (*phase, map[string]metric, error) {
	d, _, err := b.setUp(ctx, "traced")
	if err != nil {
		return nil, nil, err
	}
	spans := newSpanLog()
	traced, err := b.timedPhase(ctx, d, spans, traceEvery)
	if _, stopErr := b.stop(d); err == nil {
		err = stopErr
	}
	if err != nil {
		return nil, nil, err
	}
	b.report("traced", traced)

	storeDir := ""
	if b.wl.dataDir {
		storeDir = filepath.Join(b.work, "replay")
	}
	rp, closeStore, err := newReplayer(ctx, b.in, storeDir, spans)
	if err != nil {
		return nil, nil, err
	}
	rr, err := rp.run(b.in.timed, time.Duration(b.cfg.seconds)*time.Second, replayLimit)
	if cerr := closeStore(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, nil, err
	}
	b.replayed = rr.requests
	fmt.Printf("%s replay: %d requests\n", b.wl.name, rr.requests)

	// Recorded relative to the root, so provenance names no machine path.
	b.spansFile = filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-s%d.ndjson", b.wl.name, b.cfg.seed))
	path := filepath.Join(b.cfg.root, b.spansFile)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, nil, err
	}
	if err := spans.write(path); err != nil {
		return nil, nil, err
	}

	m := map[string]metric{}
	for _, l := range replayLayers {
		m[l.name] = metric{rr.mean(l.name), l.unit}
	}
	n := float64(len(traced.res.samples))
	lat := latencies(traced.res)
	var clientMs float64
	for _, v := range lat {
		clientMs += v
	}
	clientMs /= n
	before, after := traced.before, traced.after
	perCall := func(name string) float64 {
		c := before.delta(after, name+"_count")
		if c == 0 {
			return 0
		}
		return before.delta(after, name+"_sum") / c * 1e3
	}
	m["wire.overhead_ms"] = metric{clientMs - perCall("bagcd_request_seconds"), "ms"}
	m["wire.req_kb"] = metric{float64(traced.res.reqBytes) / n / 1024, "KiB"}
	m["wire.resp_kb"] = metric{float64(traced.check.respBytes) / n / 1024, "KiB"}
	m["service.queue_wait_ms"] = metric{perCall("bagcd_queue_wait_seconds"), "ms"}
	m["service.compute_ms"] = metric{perCall("bagcd_service_seconds"), "ms"}
	hits := before.delta(after, "bagcd_cache_hits_total")
	misses := before.delta(after, "bagcd_cache_misses_total")
	m["cache.hit_ratio"] = metric{hits / max(hits+misses, 1), "frac"}
	m["cache.evictions"] = metric{before.delta(after, "bagcd_cache_evictions_total"), "count"}
	puts := before.delta(after, "bagcd_store_puts_total")
	m["store.puts_per_req"] = metric{puts / n, "count"}
	perPut := 0.0
	if puts > 0 {
		perPut = before.delta(after, "bagcd_store_disk_bytes") / puts
	}
	m["store.bytes_per_put"] = metric{perPut, "B"}
	m["trace.overhead_frac"] = metric{1 - scaledGoodput(traced.goodSlices())/scaledGoodput(plain.goodSlices()), "frac"}
	for _, name := range phaseSpans {
		v := 0.0
		if traced.check.phaseReqs > 0 {
			v = traced.check.phaseSelfNs[name] / float64(traced.check.phaseReqs) / 1e3
		}
		m["phase."+name+"_us"] = metric{v, "us"}
	}
	return traced, m, nil
}
