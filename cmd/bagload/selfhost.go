package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"time"

	"bagconsistency/internal/metrics"
	"bagconsistency/internal/service"
	"bagconsistency/internal/telemetry"
	"bagconsistency/pkg/bagconsist"
)

// selfhost is an in-process bagcd serving stack on a loopback port: the
// same Service + Handler assembly the daemon runs, so a selfhost load
// run exercises the full admission/queue/HTTP path while remaining a
// single reproducible command — no separate daemon to start, configure,
// and tear down per experiment arm.
type selfhost struct {
	baseURL string
	svc     *service.Service
	srv     *http.Server
	ln      net.Listener
}

func bootSelfhost(cfg SelfhostConfig) (*selfhost, error) {
	checkerOpts := []bagconsist.Option{
		bagconsist.WithParallelism(cfg.Parallelism),
		bagconsist.WithCache(cfg.CacheSize),
	}
	if cfg.MaxNodes > 0 {
		checkerOpts = append(checkerOpts, bagconsist.WithMaxNodes(cfg.MaxNodes))
	}
	reg := metrics.NewRegistry()
	// Workload analytics mirror bagcd's own wiring: the cache observer
	// hands canonical fingerprints to the hot-key sketch. The selfhost
	// never runs the flight recorder — a load run is its own post-mortem.
	var workload *telemetry.Workload
	if cfg.HotkeyK > 0 {
		workload = telemetry.NewWorkload(cfg.HotkeyK)
		checkerOpts = append(checkerOpts, bagconsist.WithCheckObserver(telemetry.RecordCheck))
		telemetry.RegisterWorkloadMetrics(reg, workload, service.DefaultWorkloadTopN)
	}
	svc, err := service.New(service.Config{
		Checker:          bagconsist.New(checkerOpts...),
		QueueDepth:       cfg.QueueDepth,
		MaxTimeout:       time.Duration(cfg.MaxTimeoutMs * float64(time.Millisecond)),
		ShedThreshold:    cfg.ShedThreshold,
		ExpensiveSupport: cfg.ExpensiveSupport,
		Metrics:          reg,
		Workload:         workload,
	})
	if err != nil {
		return nil, err
	}
	handler, err := service.NewHandler(service.ServerConfig{Service: svc})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("selfhost listen: %w", err)
	}
	srv := &http.Server{Handler: handler}
	go func() { _ = srv.Serve(ln) }()
	return &selfhost{
		baseURL: "http://" + ln.Addr().String(),
		svc:     svc,
		srv:     srv,
		ln:      ln,
	}, nil
}

// drain quiesces the service — every admitted request resolves — so the
// final metrics scrape sees a settled daemon. Required for the
// server-side conservation invariant.
func (s *selfhost) drain(ctx context.Context) error {
	return s.svc.Drain(ctx)
}

func (s *selfhost) shutdown(ctx context.Context) {
	_ = s.srv.Shutdown(ctx)
}
