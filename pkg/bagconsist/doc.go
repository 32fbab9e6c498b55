// Package bagconsist is the public API of the bag-consistency engine: a
// single entry point for deciding pairwise and global consistency of bags
// (multiset relations), constructing witnesses, and serving batches of
// instances concurrently.
//
// The package wraps the internal reproduction of Atserias & Kolaitis,
// "Structure and Complexity of Bag Consistency" (PODS 2021). Consumers
// construct a Checker once with functional options and reuse it from any
// number of goroutines:
//
//	checker := bagconsist.New(
//		bagconsist.WithMaxNodes(10_000_000),
//		bagconsist.WithParallelism(8),
//	)
//	report, err := checker.CheckGlobal(ctx, coll)
//
// Every query takes a context.Context; long-running paths (the
// branch-and-bound integer search on cyclic schemas, witness enumeration
// and minimization, the acyclic join-tree composition) poll it
// cooperatively and unwind with ctx.Err() when it is cancelled or past its
// deadline. Every query returns a Report — a JSON-serializable record of
// the decision, the method that ran, the witness (when one exists),
// search-node statistics, and wall time — so results can be logged,
// cached, or shipped over the wire verbatim.
//
// CheckBatch runs many instances through a bounded worker pool sized by
// WithParallelism, yielding one Report per instance; per-instance failures
// are captured in Report.Error rather than aborting the batch, which is
// the behavior a serving layer wants.
//
// A result cache (WithCache, or WithSharedCache across Checkers) keys
// CheckGlobal results by canonical instance fingerprint: repeats of a
// checked instance — identical, tuple-permuted, or consistently
// value-renamed — are served from the cache with Report.CacheHit set and
// witnesses translated into the new instance's values, and concurrent
// identical queries coalesce onto a single computation. CheckPair is
// never cached: its Lemma 2 marginal test is cheaper than the
// fingerprint a lookup needs. See Example (WithCache) and DESIGN.md for
// the economics.
//
// OpenStore(dir) + WithStore back the cache with a durable
// content-addressed store, making it two-tier: results survive process
// restarts, a fresh Checker on the same directory serves previously
// computed fingerprints from disk with zero engine recomputation
// (promoting them into RAM), and crash-torn log tails are repaired
// automatically on open. Whoever opened the store closes it;
// StoreStats exposes the disk tier to observability. See
// docs/STORAGE.md for the format, recovery, and compaction story.
//
// The data types (Bag, Schema, Collection, Hypergraph) are aliases of the
// internal implementation types, so values produced by the internal
// generators and IO packages flow through this API unchanged. See
// DESIGN.md for the package layering.
package bagconsist
