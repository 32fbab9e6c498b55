// Example serving boots the bagcd serving stack in-process — admission
// service, shared result cache, metrics, HTTP handler — on a random local
// port, then drives it with pkg/bagclient exactly as a remote caller
// would: single checks in both wire formats' worth of instances, a
// streaming batch, a repeat query that hits the shared cache, health, and
// a metrics scrape. In production the stack runs as the standalone bagcd
// binary (cmd/bagcd); everything below the net.Listen line is identical.
//
// Run with: go run ./examples/serving
package main

import (
	"context"
	"fmt"
	"log"
	"net"
	"net/http"
	"strings"
	"time"

	"bagconsistency/internal/service"
	"bagconsistency/pkg/bagclient"
	"bagconsistency/pkg/bagconsist"
)

func main() {
	if err := run(); err != nil {
		log.Fatal("serving:", err)
	}
}

func run() error {
	// --- Server side: the bagcd stack, assembled by hand. ---
	checker := bagconsist.New(
		bagconsist.WithCache(1024),
		bagconsist.WithMaxNodes(1_000_000),
	)
	svc, err := service.New(service.Config{
		Checker:    checker,
		QueueDepth: 128,
		MaxTimeout: 30 * time.Second,
	})
	if err != nil {
		return err
	}
	handler, err := service.NewHandler(service.ServerConfig{Service: svc})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: handler}
	go srv.Serve(ln)
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		svc.Drain(ctx)
		srv.Shutdown(ctx)
	}()
	fmt.Printf("daemon listening on %s\n\n", ln.Addr())

	// --- Client side: everything below goes over HTTP. ---
	cli, err := bagclient.New("http://" + ln.Addr().String())
	if err != nil {
		return err
	}
	ctx := context.Background()

	// The warehouse instance: orders per (customer, item), totals per
	// customer. Consistent — a witness exists and comes back on the wire.
	orders, err := bagconsist.BagFromRows(bagconsist.MustSchema("CUSTOMER", "ITEM"),
		[][]string{{"alice", "widget"}, {"alice", "gadget"}, {"bob", "gadget"}},
		[]int64{2, 1, 4})
	if err != nil {
		return err
	}
	totals, err := bagconsist.BagFromRows(bagconsist.MustSchema("CUSTOMER"),
		[][]string{{"alice"}, {"bob"}}, []int64{3, 4})
	if err != nil {
		return err
	}
	warehouse := []bagclient.NamedBag{{Name: "orders", Bag: orders}, {Name: "totals", Bag: totals}}

	rep, err := cli.Check(ctx, warehouse)
	if err != nil {
		return err
	}
	fmt.Printf("check:       consistent=%v method=%s witness_support=%d elapsed=%v\n",
		rep.Consistent, rep.Method, rep.WitnessSupport, rep.Elapsed)

	// The same instance again: served from the daemon's shared cache.
	rep, err = cli.Check(ctx, warehouse)
	if err != nil {
		return err
	}
	fmt.Printf("check again: consistent=%v cache_hit=%v elapsed=%v\n",
		rep.Consistent, rep.CacheHit, rep.Elapsed)

	// A pair check with a server-side compute budget.
	prep, err := cli.CheckPair(ctx, warehouse[0], warehouse[1], bagclient.WithTimeout(5*time.Second))
	if err != nil {
		return err
	}
	fmt.Printf("check/pair:  consistent=%v method=%s\n", prep.Consistent, prep.Method)

	// A streaming batch: the consistent instance, an inconsistent twist
	// on it, and the consistent one again. Slot 1 is a report, not an
	// error — inconsistency is an answer.
	badTotals, err := bagconsist.BagFromRows(bagconsist.MustSchema("CUSTOMER"),
		[][]string{{"alice"}, {"bob"}}, []int64{30, 4})
	if err != nil {
		return err
	}
	results, err := cli.CheckBatch(ctx, [][]bagclient.NamedBag{
		warehouse,
		{warehouse[0], {Name: "totals", Bag: badTotals}},
		warehouse,
	})
	if err != nil {
		return err
	}
	for _, r := range results {
		if r.Err != "" {
			fmt.Printf("batch[%d]:    error=%s\n", r.Index, r.Err)
			continue
		}
		fmt.Printf("batch[%d]:    consistent=%v cache_hit=%v\n", r.Index, r.Report.Consistent, r.Report.CacheHit)
	}

	// Observability: health JSON and a few scraped series.
	h, err := cli.Health(ctx)
	if err != nil {
		return err
	}
	fmt.Printf("\nhealthz:     status=%s queue=%d/%d cache_hits=%d\n",
		h.Status, h.QueueDepth, h.QueueCapacity, h.Cache.Hits)

	scrape, err := cli.Metrics(ctx)
	if err != nil {
		return err
	}
	fmt.Println("\nselected /metrics series:")
	for _, line := range strings.Split(scrape, "\n") {
		if strings.HasPrefix(line, "bagcd_requests_total") ||
			strings.HasPrefix(line, "bagcd_cache_hits_total") ||
			strings.HasPrefix(line, "bagcd_queue_capacity") {
			fmt.Println("  " + line)
		}
	}
	return nil
}
