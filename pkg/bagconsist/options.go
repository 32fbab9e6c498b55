package bagconsist

import (
	"runtime"

	"bagconsistency/internal/core"
)

// config is the collapsed configuration surface: one flat struct behind
// the functional options, projected onto core.GlobalOptions at call time.
type config struct {
	maxNodes    int64
	parallelism int
	cache       *Cache
	// store is attached under the cache by New (see WithStore).
	store *Store
	// observer, when set, is notified after every cache-backed check
	// (see WithCheckObserver). Pure telemetry: never part of optionsKey.
	observer CheckObserver
}

func defaultConfig() config {
	return config{parallelism: runtime.GOMAXPROCS(0)}
}

// global projects the config onto the internal options type.
func (c config) global() core.GlobalOptions {
	return core.GlobalOptions{MaxNodes: c.maxNodes}
}

// Option configures a Checker.
type Option func(*config)

// WithMaxNodes bounds the integer search's node budget on cyclic schemas
// (0 means the engine default). When the budget is exhausted the query
// fails with an error wrapping ErrNodeLimit instead of hanging.
func WithMaxNodes(n int64) Option {
	return func(c *config) { c.maxNodes = n }
}

// WithParallelism sets the CheckBatch worker-pool size (default
// GOMAXPROCS; values < 1 are clamped to 1).
func WithParallelism(n int) Option {
	return func(c *config) {
		if n < 1 {
			n = 1
		}
		c.parallelism = n
	}
}

// WithCache gives the Checker a private result cache holding up to size
// results. CheckGlobal then serves repeat instances — identical,
// tuple-permuted, or consistently value-renamed — from the cache
// (Report.CacheHit reports it), and concurrent identical queries
// coalesce so each distinct instance computes once. CheckPair never
// consults it: its marginal test costs less than a fingerprint. The
// default is no cache.
func WithCache(size int) Option {
	return func(c *config) { c.cache = NewCache(size) }
}

// WithSharedCache injects an existing cache, so several Checkers (or a
// Checker and its metrics scraper) share one result set and one stats
// surface. A nil cache disables caching.
func WithSharedCache(sc *Cache) Option {
	return func(c *config) { c.cache = sc }
}

// DefaultCacheSize is the RAM-tier capacity WithStore provisions when no
// cache was configured explicitly.
const DefaultCacheSize = 4096

// WithStore backs the Checker's cache with an already opened persistent
// store (see OpenStore), making it a two-tier cache: RAM hits stay
// RAM-fast, RAM misses consult the disk tier (promoting hits), and
// computed results are written through, so the memo table survives
// restarts and a warm start serves previously computed fingerprints with
// zero engine recomputation. The caller keeps ownership and closes the
// store after the Checker is done. A cache is created (DefaultCacheSize)
// if none was configured. A nil store disables persistence.
func WithStore(s *Store) Option {
	return func(c *config) { c.store = s }
}
