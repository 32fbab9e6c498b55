// Package bagconsistency reproduces Atserias & Kolaitis, "Structure and
// Complexity of Bag Consistency" (PODS 2021): the structural
// characterization of local-to-global consistency for bags (acyclicity),
// the NP-membership and dichotomy results for the global consistency
// problem, and the polynomial witness constructions.
//
// Consumers use the public facade pkg/bagconsist — a Checker built with
// functional options, context-aware CheckPair/CheckGlobal/Witness methods
// returning a JSON-serializable Report, and a concurrent CheckBatch
// service layer. Remote consumers talk to the cmd/bagcd HTTP daemon
// through pkg/bagclient, which returns the same Report values. See
// README.md for the quickstart, DESIGN.md for the architecture, and
// docs/SERVING.md for the network API.
//
// The implementation lives in the internal packages:
//
//	pkg/bagconsist       the public API: Checker, options, Report, batching, caching
//	pkg/bagclient        typed HTTP client for the bagcd daemon (503 retries, contexts)
//	internal/bag         multiset algebra: schemas, tuples, bags, marginals, joins
//	internal/hypergraph  acyclicity, chordality, conformality, join trees, cores
//	internal/maxflow     Dinic integral max flow
//	internal/lp          exact rational simplex
//	internal/ilp         integer feasibility for the programs P(R1..Rm)
//	internal/core        the paper's results: consistency tests, witnesses,
//	                     the dichotomy decision procedure, Tseitin counterexamples
//	internal/canon       order- and renaming-invariant instance fingerprints
//	internal/cache       sharded LRU result cache with singleflight coalescing
//	internal/store       persistent content-addressed result store: append-only
//	                     checksummed segment log with crash recovery and
//	                     compaction (docs/STORAGE.md) — the disk tier under
//	                     the cache, attached via OpenStore + WithStore / -data-dir
//	internal/service     the serving core: admission queue, load shedding,
//	                     deadline propagation, graceful drain, HTTP handlers
//	internal/metrics     dependency-free counters/gauges/histograms with
//	                     Prometheus text exposition
//	internal/buildinfo   version/commit stamping behind every -version flag
//	internal/harness     the timing loop and the one table of measured workloads
//	internal/relational  the set-semantics baseline
//	internal/reductions  HLY80 3-coloring, 3DCT, and the Lemma 6/7 lifts
//	internal/gen         instance families and random workloads
//	internal/bagio       text/JSON formats for the CLI tools
//
// Command-line entry points are cmd/bagc (consistency checking plus the
// `bagc store` inspect/verify/compact maintenance subcommands),
// cmd/schemacheck (schema classification), cmd/experiments (the full
// paper reproduction harness, experiments E1–E10 of DESIGN.md),
// cmd/bench (the reproducible performance sweeps behind BENCH_pr2.json
// and the cold-vs-warm-restart BENCH_pr4.json), and cmd/bagcd (the HTTP
// serving daemon of docs/SERVING.md, persistent with -data-dir).
// bench_test.go runs the quick sweep of the internal/harness workload
// table as go test -bench sub-benchmarks.
// docs/PAPER_MAP.md maps each of the paper's results to the code
// reproducing it.
package bagconsistency
