package bagconsist

import (
	"context"
	"errors"
	"time"

	"bagconsistency/internal/core"
	"bagconsistency/internal/trace"
)

// ErrInconsistent is returned by Witness when the instance has no witness
// because it is not globally consistent.
var ErrInconsistent = errors.New("bagconsist: collection is not globally consistent")

// Checker is the engine facade. It is immutable after New and safe for
// concurrent use from any number of goroutines; a service constructs one
// Checker per configuration and shares it.
type Checker struct {
	cfg config
}

// New builds a Checker from functional options. A store given with
// WithStore is attached under the cache here, after all options, so
// option order never matters.
func New(opts ...Option) *Checker {
	cfg := defaultConfig()
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.store != nil {
		if cfg.cache == nil {
			cfg.cache = NewCache(DefaultCacheSize)
		}
		cfg.cache.attachStore(cfg.store)
	}
	return &Checker{cfg: cfg}
}

// StoreStats returns the persistent store's statistics, and false when
// the Checker has no disk tier.
func (c *Checker) StoreStats() (StoreStats, bool) {
	if c.cfg.cache == nil {
		return StoreStats{}, false
	}
	return c.cfg.cache.StoreStats()
}

// Parallelism returns the configured worker-pool width (WithParallelism).
// Serving layers size their own pools by it so one knob governs both
// CheckBatch and request-level concurrency.
func (c *Checker) Parallelism() int {
	if c.cfg.parallelism < 1 {
		return 1
	}
	return c.cfg.parallelism
}

// CacheStats returns the Checker's cache statistics, and false when no
// cache is configured — the serving layer's observability hook.
func (c *Checker) CacheStats() (CacheStats, bool) {
	if c.cfg.cache == nil {
		return CacheStats{}, false
	}
	return c.cfg.cache.Stats(), true
}

// CheckPair decides whether two bags are consistent by the strongly
// polynomial test of Lemma 2: equal marginals on the shared attributes.
// It never consults the cache, the store or the observer, because the
// test costs less than the canonical fingerprint a cache lookup needs;
// Report.CacheHit is always false.
func (c *Checker) CheckPair(ctx context.Context, r, s *Bag) (*Report, error) {
	ctx, span := trace.Start(ctx, trace.SpanCheck)
	span.SetAttr("kind", "pair")
	start := time.Now()
	ok, err := false, ctx.Err()
	if err == nil {
		_, msp := trace.Start(ctx, trace.SpanMarginals)
		ok, err = core.PairConsistent(r, s)
		msp.End()
	}
	span.End()
	if err != nil {
		return nil, err
	}
	rep := &Report{Consistent: ok, Method: "marginal", Bags: 2, Elapsed: time.Since(start)}
	attachPhases(ctx, rep)
	return rep, nil
}

// PairWitness decides consistency of two bags and, when consistent,
// constructs a minimal-support witnessing bag T with T[X] = R and
// T[Y] = S (Theorem 5). It returns ErrInconsistent (with the refuting
// Report) when no witness exists.
func (c *Checker) PairWitness(ctx context.Context, r, s *Bag) (*Report, error) {
	start := time.Now()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	ctx, span := trace.Start(ctx, trace.SpanCheck)
	span.SetAttr("kind", "pair-witness")
	w, ok, err := core.MinimalPairWitnessContext(ctx, r, s)
	span.End()
	if err != nil {
		return nil, err
	}
	rep := &Report{Consistent: ok, Method: "max-flow", Bags: 2, Elapsed: time.Since(start)}
	defer attachPhases(ctx, rep)
	if !ok {
		return rep, ErrInconsistent
	}
	rep.Witness = newWitness(w)
	rep.WitnessSupport = w.SupportSize()
	return rep, nil
}

// CheckGlobal decides whether the collection is globally consistent (the
// GCPB(H) problem) and includes the constructed witness when it is. It
// runs the Theorem 4 dichotomy: the polynomial join-tree composition on
// acyclic schemas, pairwise refutation then the exact integer search on
// cyclic ones — over the GYO core only, with the acyclic fringe composed
// around the core's witness, when the schema has a fringe.
//
// With a cache configured (WithCache / WithSharedCache), instances are
// keyed by their canonical fingerprint: a repeat of a cached instance —
// identical, tuple-permuted, or consistently value-renamed — returns the
// cached Report with CacheHit set and the witness expressed in the new
// instance's values, skipping even the NP-hard search. Concurrent
// identical misses coalesce onto one computation.
func (c *Checker) CheckGlobal(ctx context.Context, coll *Collection) (*Report, error) {
	ctx, span := trace.Start(ctx, trace.SpanCheck)
	span.SetAttr("kind", "global")
	var rep *Report
	var err error
	if c.cfg.cache != nil {
		rep, err = c.cachedCheck(ctx, coll.Bags(), func(cctx context.Context) (*Report, error) {
			return c.checkGlobalUncached(cctx, coll)
		})
	} else {
		rep, err = c.checkGlobalUncached(ctx, coll)
	}
	span.End()
	attachPhases(ctx, rep)
	return rep, err
}

func (c *Checker) checkGlobalUncached(ctx context.Context, coll *Collection) (*Report, error) {
	start := time.Now()
	dec, err := coll.GloballyConsistentContext(ctx, c.cfg.global())
	if err != nil {
		return nil, err
	}
	rep := &Report{
		Consistent: dec.Consistent,
		Method:     string(dec.Method),
		Bags:       coll.Len(),
		Nodes:      dec.Nodes,
		Elapsed:    time.Since(start),
	}
	if dec.Witness != nil {
		rep.Witness = newWitness(dec.Witness)
		rep.WitnessSupport = dec.Witness.SupportSize()
	}
	return rep, nil
}

// Witness constructs a witness of global consistency. It is CheckGlobal
// that insists on a witness: every consistent decision carries one, and
// when the collection is inconsistent Witness returns the refuting
// Report together with ErrInconsistent.
func (c *Checker) Witness(ctx context.Context, coll *Collection) (*Report, error) {
	rep, err := c.CheckGlobal(ctx, coll)
	if err != nil {
		return nil, err
	}
	if !rep.Consistent {
		return rep, ErrInconsistent
	}
	return rep, nil
}

// VerifyWitness reports whether w marginalizes onto every bag of the
// collection.
func (c *Checker) VerifyWitness(coll *Collection, w *Bag) (bool, error) {
	return coll.VerifyWitness(w)
}

// MinimizeWitness shrinks a witness of global consistency to one of
// minimal support (Theorem 3(3) bound) by per-tuple integer feasibility
// probes.
func (c *Checker) MinimizeWitness(ctx context.Context, coll *Collection, w *Bag) (*Bag, error) {
	return coll.MinimizeWitnessSupportContext(ctx, w, c.cfg.global().ILP())
}

// CountPairWitnesses counts the bags witnessing the consistency of two
// bags by complete enumeration of the integer points of P(R,S).
func (c *Checker) CountPairWitnesses(ctx context.Context, r, s *Bag) (int64, error) {
	coll, err := core.NewCollection2(r, s)
	if err != nil {
		return 0, err
	}
	return c.CountWitnesses(ctx, coll)
}

// EnumeratePairWitnesses calls fn with every witness of the consistency
// of two bags, in a deterministic order; fn may return an error to stop.
func (c *Checker) EnumeratePairWitnesses(ctx context.Context, r, s *Bag, fn func(*Bag) error) error {
	coll, err := core.NewCollection2(r, s)
	if err != nil {
		return err
	}
	return c.EnumerateWitnesses(ctx, coll, fn)
}

// CountWitnesses counts the witnesses of the collection's global
// consistency; 0 iff globally inconsistent.
func (c *Checker) CountWitnesses(ctx context.Context, coll *Collection) (int64, error) {
	return coll.CountWitnessesContext(ctx, c.cfg.global().ILP())
}

// EnumerateWitnesses calls fn with every witness of the collection's
// global consistency, in a deterministic order.
func (c *Checker) EnumerateWitnesses(ctx context.Context, coll *Collection, fn func(*Bag) error) error {
	return coll.EnumerateWitnessesContext(ctx, c.cfg.global().ILP(), fn)
}

// KWiseConsistent reports whether every sub-collection of at most k bags
// is globally consistent (Section 4's k-wise hierarchy). Exponential in
// k; intended for verification on small collections.
func (c *Checker) KWiseConsistent(ctx context.Context, coll *Collection, k int) (bool, error) {
	return coll.KWiseConsistentContext(ctx, k, c.cfg.global())
}
