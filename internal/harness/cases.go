package harness

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"

	"bagconsistency/internal/bag"
	"bagconsistency/internal/bagio"
	"bagconsistency/internal/canon"
	"bagconsistency/internal/core"
	"bagconsistency/internal/gen"
	"bagconsistency/internal/hypergraph"
	"bagconsistency/internal/ilp"
	"bagconsistency/internal/reductions"
	"bagconsistency/internal/relational"
	"bagconsistency/pkg/bagconsist"
)

// Case is one measured workload: a seeded instance, a configured
// operation and the answer check the operation makes.
type Case struct {
	// Name is the key every tool reports the case under,
	// family/method/cache=mode/params in the family's own spelling. It is
	// unique within a sweep.
	Name string
	// Family, Method, Cache ("off" or "warm") and Params are the fields
	// cmd/bench writes beside the name.
	Family, Method, Cache, Params string
	// Quick and Full place the case in cmd/bench's sweeps. A case in
	// neither is a size no bench family sweeps; only cmd/experiments times
	// it.
	Quick, Full bool
	// Versus, when set, makes the case a speedup over another case of the
	// same sweep.
	Versus *Versus
	// Setup builds the instance and the operation.
	Setup func() (*Run, error)
}

// Versus names the case a speedup is measured against and the key the
// speedup is reported under.
type Versus struct{ Case, Family, Params, Variant string }

// In reports whether the case is in the quick or the full sweep.
func (c Case) In(quick bool) bool { return quick && c.Quick || !quick && c.Full }

// Instance is the input a case's operation reads. cmd/experiments prints
// its facts; the tests pin its content.
type Instance struct {
	R, S   *bag.Bag
	Coll   *core.Collection
	Colls  []*core.Collection
	Global *bag.Bag // the witness E4's minimization starts from
	Rels   []*relational.Relation
	Schema *hypergraph.Hypergraph
	Bytes  []byte // the encoded instance an ingest case decodes
}

// Run is a prepared case. Close it after measuring.
type Run struct {
	Instance
	// Op is the timed operation. It returns the Checker's report when it
	// makes one Checker call, and an error wherever its answer check
	// fails: a wrong verdict, a violated bound, a cache miss where every
	// call must hit.
	Op func() (*bagconsist.Report, error)
	// Tuples is the number of tuples Op decodes (ingest cases).
	Tuples int
	// HitRate and DiskHits, when set, read the cache counters after the
	// timing loop: the RAM tier's hit rate and the store's hits since
	// setup.
	HitRate  func() float64
	DiskHits func() uint64
	cleanup  func() error
}

// Close releases what Setup acquired: temporary directories and stores.
func (r *Run) Close() error {
	if r.cleanup == nil {
		return nil
	}
	return r.cleanup()
}

// Cases returns every measured workload, in the order cmd/bench runs
// them.
func Cases() []Case {
	var cs []Case
	for _, family := range []func() []Case{
		pairCases, acyclicCases, cyclicCases, cyclicCoreCases, cacheCases, batchCases, restartCases,
		coreCases, ablationCases, extCases, apiCases, experimentCases, ingestCases,
	} {
		cs = append(cs, family()...)
	}
	return cs
}

// Find returns the first case with the given name.
func Find(name string) (Case, error) {
	for _, c := range Cases() {
		if c.Name == name {
			return c, nil
		}
	}
	return Case{}, fmt.Errorf("harness: no case %q", name)
}

var ctx = context.Background()

type op = func() (*bagconsist.Report, error)

var errInconsistent = errors.New("consistent instance judged inconsistent")

// consistent fails a Checker call whose report says inconsistent.
func consistent(rep *bagconsist.Report, err error) (*bagconsist.Report, error) {
	if err == nil && !rep.Consistent {
		err = errInconsistent
	}
	return rep, err
}

// hit fails a Checker call that missed the cache.
func hit(rep *bagconsist.Report, err error) (*bagconsist.Report, error) {
	if err == nil && !rep.CacheHit {
		err = errors.New("warm cache missed")
	}
	return rep, err
}

// holds turns an engine call's (ok, err) into an operation result.
func holds(ok bool, err error) (*bagconsist.Report, error) {
	if err == nil && !ok {
		err = errInconsistent
	}
	return nil, err
}

// newCase builds a case named family/method/cache=mode/params, in both
// sweeps or in neither.
func newCase(family, method, cache, params string, swept bool, setup func() (*Run, error)) Case {
	return Case{
		Name:   family + "/" + method + "/cache=" + cache + "/" + params,
		Family: family, Method: method, Cache: cache, Params: params,
		Quick: swept, Full: swept, Setup: setup,
	}
}

// onPair and onColl build an instance and close the operation over it.
func onPair(build func() (*bag.Bag, *bag.Bag, error), f func(r, s *bag.Bag) op) func() (*Run, error) {
	return func() (*Run, error) {
		r, s, err := build()
		if err != nil {
			return nil, err
		}
		return &Run{Instance: Instance{R: r, S: s}, Op: f(r, s)}, nil
	}
}

func onColl(build func() (*core.Collection, error), f func(*core.Collection) op) func() (*Run, error) {
	return func() (*Run, error) {
		c, err := build()
		if err != nil {
			return nil, err
		}
		return &Run{Instance: Instance{Coll: c}, Op: f(c)}, nil
	}
}

// checker returns a Checker with a private 64-entry cache in "warm" mode.
func checker(mode string, opts ...bagconsist.Option) *bagconsist.Checker {
	if mode == "warm" {
		opts = append(opts[:len(opts):len(opts)], bagconsist.WithCache(64))
	}
	return bagconsist.New(opts...)
}

// checkGlobal decides c with checker(mode, opts...), failing on an
// inconsistent verdict.
func checkGlobal(mode string, opts ...bagconsist.Option) func(*core.Collection) op {
	return func(c *core.Collection) op {
		ch := checker(mode, opts...)
		return func() (*bagconsist.Report, error) { return consistent(ch.CheckGlobal(ctx, c)) }
	}
}

// The seeded instance builders. Every instance the tools measure comes
// from the table, so each seed and its arguments are written once.

func seededPair(seed int64, n int, maxMult int64, domain int) func() (*bag.Bag, *bag.Bag, error) {
	return func() (*bag.Bag, *bag.Bag, error) {
		return gen.RandomConsistentPair(rand.New(rand.NewSource(seed)), n, maxMult, domain)
	}
}

func seededColl(seed int64, h *hypergraph.Hypergraph, support int, maxMult int64, domain int) func() (*core.Collection, error) {
	return func() (*core.Collection, error) {
		c, _, err := gen.RandomConsistent(rand.New(rand.NewSource(seed)), h, support, maxMult, domain)
		return c, err
	}
}

func threeDCT(rng *rand.Rand, n int) (*core.Collection, error) {
	inst, err := gen.RandomThreeDCT(rng, n, 3)
	if err != nil {
		return nil, err
	}
	return inst.ToCollection()
}

// pairInstance is the pair family's instance, also E1's engine pair test.
func pairInstance(n int) func() (*bag.Bag, *bag.Bag, error) { return seededPair(1, n, 1<<20, n/8+2) }

// acyclicInstance is the acyclic family's instance, also E6's.
func acyclicInstance(h *hypergraph.Hypergraph, mult int64) func() (*core.Collection, error) {
	return seededColl(6, h, 64, mult, 4)
}

// cube is the cyclic family's interior 3DCT instance, also E6's.
func cube(n int) func() (*core.Collection, error) {
	return func() (*core.Collection, error) { return threeDCT(rand.New(rand.NewSource(6)), n) }
}

// pairCases sweep two-bag consistency across the four Lemma 2 decision
// methods and cache modes.
func pairCases() []Case {
	var cs []Case
	for _, n := range []int{64, 256, 1024} {
		for _, m := range []struct {
			name string
			m    bagconsist.Method
			max  int // largest support the method is measured at
		}{{"auto", bagconsist.Auto, 1 << 30}, {"max-flow", bagconsist.Flow, 1 << 30}, {"lp-relaxation", bagconsist.LP, 256}, {"integer-program", bagconsist.ILP, 64}} {
			for _, mode := range []string{"off", "warm"} {
				if n > m.max {
					continue
				}
				cs = append(cs, Case{
					Name:   fmt.Sprintf("pair/%s/cache=%s/support=%d", m.name, mode, n),
					Family: "pair", Method: m.name, Cache: mode, Params: fmt.Sprintf("support=%d", n),
					Quick: n <= 256, Full: true,
					Setup: onPair(pairInstance(n), func(r, s *bag.Bag) op {
						ch := checker(mode, bagconsist.WithMethod(m.m))
						return func() (*bagconsist.Report, error) { return consistent(ch.CheckPair(ctx, r, s)) }
					}),
				})
			}
		}
	}
	return cs
}

// acyclicCases sweep global consistency on acyclic schemas (the
// polynomial side of the Theorem 4 dichotomy) across shape, size and
// multiplicity scale. E6 also times the uncached paths at m=8 and m=32,
// which no sweep holds.
func acyclicCases() []Case {
	var cs []Case
	for _, shape := range []struct {
		name string
		hg   func(int) *hypergraph.Hypergraph
		ms   []int
	}{
		{"path", func(m int) *hypergraph.Hypergraph { return hypergraph.Path(m + 1) }, []int{4, 8, 16, 32}},
		{"star", hypergraph.Star, []int{8, 32}},
	} {
		for _, m := range shape.ms {
			swept := shape.name == "star" || m == 4 || m == 16
			for _, mult := range []int64{1 << 4, 1 << 10, 1 << 16} {
				for _, mode := range []string{"off", "warm"} {
					if !swept && (mult != 1<<16 || mode != "off") {
						continue
					}
					cs = append(cs, Case{
						Name:   fmt.Sprintf("acyclic/%s/cache=%s/m=%d,mult=%d", shape.name, mode, m, mult),
						Family: "acyclic", Method: "auto", Cache: mode, Params: fmt.Sprintf("shape=%s,m=%d,mult=%d", shape.name, m, mult),
						Quick: swept && mult == 1<<10, Full: swept && mult != 1<<10,
						Setup: onColl(acyclicInstance(shape.hg(m), mult), checkGlobal(mode)),
					})
				}
			}
		}
	}
	return cs
}

// cyclicCases sweep the NP side: 3DCT triangle instances through the
// exact integer search, with and without LP pruning, cached and not. E6
// also times the uncached plain search at n=5, which no sweep holds.
func cyclicCases() []Case {
	var cs []Case
	for _, n := range []int{2, 3, 4, 5} {
		for _, lp := range []bool{false, true} {
			method := map[bool]string{false: "integer-program", true: "integer-program+lp"}[lp]
			for _, mode := range []string{"off", "warm"} {
				if n == 5 && (lp || mode != "off") {
					continue
				}
				opts := []bagconsist.Option{bagconsist.WithMaxNodes(50_000_000)}
				if lp {
					opts = append(opts, bagconsist.WithLPPruning(true))
				}
				cs = append(cs, Case{
					Name:   fmt.Sprintf("cyclic/3dct/%s/cache=%s/n=%d", method, mode, n),
					Family: "cyclic", Method: method, Cache: mode, Params: fmt.Sprintf("n=%d", n),
					Quick: n <= 3, Full: n <= 4,
					Setup: onColl(cube(n), checkGlobal(mode, opts...)),
				})
			}
		}
	}
	return cs
}

// cyclicCoreCases sweep distance from acyclicity: a path with k chords,
// whose GYO core holds 2k+1 edges. Each instance is decided by the
// monolithic search (WithMethod(ILP)) sequentially and with 4 workers,
// and by Auto with 4 workers, which searches the core only (named
// par4+decomp so baselines still match). Each parallel arm is a speedup
// over the sequential one.
func cyclicCoreCases() []Case {
	var cs []Case
	for _, sweep := range []struct {
		m     int
		ks    []int
		quick bool
	}{{8, []int{1, 2}, true}, {10, []int{0, 1, 2, 3}, false}} {
		for _, k := range sweep.ks {
			m := sweep.m
			build := func() (*core.Collection, error) {
				h, err := gen.NearAcyclicHypergraph(m, k)
				if err != nil {
					return nil, err
				}
				return seededColl(7, h, 6, 4, 2)()
			}
			for _, cfg := range []struct {
				name    string
				method  bagconsist.Method
				workers int
			}{{"seq", bagconsist.ILP, 0}, {"par4", bagconsist.ILP, 4}, {"par4+decomp", bagconsist.Auto, 4}} {
				opts := []bagconsist.Option{
					bagconsist.WithMethod(cfg.method),
					bagconsist.WithMaxNodes(2_000_000_000),
					// The measurement targets the search, not witness
					// post-processing.
					bagconsist.WithWitnessMinimization(false),
				}
				if cfg.workers > 0 {
					opts = append(opts, bagconsist.WithSolverParallelism(cfg.workers))
				}
				c := Case{
					Name:   fmt.Sprintf("cycliccore/%s/cache=off/m=%d,k=%d", cfg.name, m, k),
					Family: "cycliccore", Method: cfg.method.String(), Cache: "off", Params: fmt.Sprintf("m=%d,k=%d,solver=%s", m, k, cfg.name),
					Quick: sweep.quick, Full: !sweep.quick,
					Setup: onColl(build, checkGlobal("off", opts...)),
				}
				if cfg.workers > 0 {
					c.Versus = &Versus{fmt.Sprintf("cycliccore/seq/cache=off/m=%d,k=%d", m, k), "cycliccore", fmt.Sprintf("m=%d,k=%d", m, k), cfg.name}
				}
				cs = append(cs, c)
			}
		}
	}
	return cs
}

// cacheCases are the cache acceptance measurement: an uncached
// CheckGlobal against a warm hit on the same instance, and on a
// tuple-permuted and a value-renamed copy that exercise the canonical
// fingerprint. The cyclic instance is where the cache pays for itself: a
// hit skips an NP-hard search.
func cacheCases() []Case {
	var cs []Case
	for w, load := range []struct{ name, params string }{{"cyclic-3dct", "n=5"}, {"acyclic-path", "m=8"}} {
		cold := Case{
			Name:   fmt.Sprintf("cache/%s/cache=off/%s", load.name, load.params),
			Family: "cache", Method: "auto", Cache: "off", Params: fmt.Sprintf("workload=%s,%s", load.name, load.params),
			Quick: true, Full: true,
			Setup: onColl(func() (*core.Collection, error) {
				probes, err := cacheInstances()
				return probes[w][0], err
			}, func(c *core.Collection) op {
				uncached := bagconsist.New(bagconsist.WithMaxNodes(50_000_000))
				return func() (*bagconsist.Report, error) { return uncached.CheckGlobal(ctx, c) }
			}),
		}
		cs = append(cs, cold)
		for v, variant := range []string{"identical", "permuted", "renamed"} {
			cs = append(cs, Case{
				Name:   fmt.Sprintf("cache/%s/cache=warm/%s,variant=%s", load.name, load.params, variant),
				Family: "cache", Method: "auto", Cache: "warm", Params: fmt.Sprintf("%s,variant=%s", cold.Params, variant),
				Quick: true, Full: true,
				Versus: &Versus{cold.Name, load.name, load.params, variant},
				Setup: func() (*Run, error) {
					probes, err := cacheInstances()
					if err != nil {
						return nil, err
					}
					ch := bagconsist.New(bagconsist.WithCache(64), bagconsist.WithMaxNodes(50_000_000))
					if _, err := ch.CheckGlobal(ctx, probes[w][0]); err != nil { // populate
						return nil, err
					}
					probe := probes[w][v]
					return &Run{Instance: Instance{Coll: probe}, Op: func() (*bagconsist.Report, error) { return hit(ch.CheckGlobal(ctx, probe)) }}, nil
				},
			})
		}
	}
	return cs
}

// cacheInstances draws the cache family's instances from one seed, in an
// order the permuted probes depend on: an n=5 interior 3DCT (a few
// thousand search nodes, so the cold search dominates the fingerprint)
// and an m=8 path, then each one's identical, tuple-permuted and
// value-renamed probes.
func cacheInstances() (probes [2][3]*core.Collection, err error) {
	rng := rand.New(rand.NewSource(9))
	if probes[0][0], err = threeDCT(rng, 5); err != nil {
		return probes, err
	}
	if probes[1][0], _, err = gen.RandomConsistent(rng, hypergraph.Path(9), 64, 1<<16, 4); err != nil {
		return probes, err
	}
	for w := range probes {
		if probes[w][1], err = rebuilt(probes[w][0], func(b, nb *bag.Bag) error {
			tuples := b.Tuples()
			rng.Shuffle(len(tuples), func(a, z int) { tuples[a], tuples[z] = tuples[z], tuples[a] })
			for _, tup := range tuples {
				if err := nb.AddTuple(tup, b.CountTuple(tup)); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			return probes, err
		}
		rename := make(map[string]map[string]string)
		if probes[w][2], err = rebuilt(probes[w][0], func(b, nb *bag.Bag) error {
			attrs := b.Schema().Attrs()
			return b.Each(func(tup bag.Tuple, count int64) error {
				vals := tup.Values()
				for j, a := range attrs {
					if rename[a] == nil {
						rename[a] = make(map[string]string)
					}
					n, ok := rename[a][vals[j]]
					if !ok {
						n = fmt.Sprintf("%s_r%d", a, len(rename[a]))
						rename[a][vals[j]] = n
					}
					vals[j] = n
				}
				return nb.Add(vals, count)
			})
		}); err != nil {
			return probes, err
		}
	}
	return probes, nil
}

// rebuilt copies c bag by bag, each new bag nb filled from b by fill.
func rebuilt(c *core.Collection, fill func(b, nb *bag.Bag) error) (*core.Collection, error) {
	bags := make([]*bag.Bag, c.Len())
	for i, b := range c.Bags() {
		bags[i] = bag.New(b.Schema())
		if err := fill(b, bags[i]); err != nil {
			return nil, err
		}
	}
	return core.NewCollection(c.Hypergraph(), bags)
}

// stars draws count star instances from seed 20: the batch family's pool
// and the API batches.
func stars(count int) ([]*core.Collection, error) {
	rng := rand.New(rand.NewSource(20))
	out := make([]*core.Collection, count)
	for i := range out {
		var err error
		if out[i], _, err = gen.RandomConsistent(rng, hypergraph.Star(8), 32, 1<<10, 4); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// batchOf checks size slots filled round-robin from distinct of the stars
// through CheckBatch. It fails on any failed slot, and on an inconsistent
// one when strict.
func batchOf(size, distinct int, strict bool, opts ...bagconsist.Option) (*Run, error) {
	pool, err := stars(distinct)
	if err != nil {
		return nil, err
	}
	instances := make([]*core.Collection, size)
	for i := range instances {
		instances[i] = pool[i%distinct]
	}
	ch := bagconsist.New(opts...)
	return &Run{Instance: Instance{Colls: instances}, Op: func() (*bagconsist.Report, error) {
		reports, err := ch.CheckBatch(ctx, instances)
		for _, rep := range reports {
			if err == nil && (rep.Error != "" || strict && !rep.Consistent) {
				err = fmt.Errorf("batch slot failed: %s", rep.Error)
			}
		}
		return nil, err
	}}, nil
}

// batchCases measure the serving path: batches with heavy duplication
// through the worker pool, with and without a shared cache (the cached
// run coalesces duplicates in flight and hits on repeats).
func batchCases() []Case {
	var cs []Case
	for _, size := range []int{16, 32} {
		for _, workers := range []int{1, 4, 8} {
			for _, mode := range []string{"off", "warm"} {
				cs = append(cs, Case{
					Name:   fmt.Sprintf("batch/size=%d/cache=%s/workers=%d", size, mode, workers),
					Family: "batch", Method: "auto", Cache: mode, Params: fmt.Sprintf("size=%d,distinct=4,workers=%d", size, workers),
					Quick: size == 16, Full: size == 32,
					Setup: func() (*Run, error) {
						if mode == "off" {
							return batchOf(size, 4, false, bagconsist.WithParallelism(workers))
						}
						sc := bagconsist.NewCache(64)
						run, err := batchOf(size, 4, false, bagconsist.WithParallelism(workers), bagconsist.WithSharedCache(sc))
						if run != nil {
							run.HitRate = func() float64 { return sc.Stats().HitRate() }
						}
						return run, err
					},
				})
			}
		}
	}
	return cs
}

// restartCases measure the persistence acceptance number: a sweep of
// distinct instances computed cold (no cache at all) against the same
// sweep served by a warm start, a fresh RAM tier over a data dir
// populated before the measurement. The warm sweep purges the RAM tier
// before every pass, so every measured query is a genuine disk hit
// (fingerprint, read, checksum, decode, promote), not a promoted RAM hit;
// the speedup is therefore the conservative one.
func restartCases() []Case {
	var cs []Case
	for _, cyclicN := range [][]int{{3, 4}, {3, 4, 5}} {
		quick := len(cyclicN) == 2
		params := fmt.Sprintf("instances=%d,cyclic=%d,acyclic=2", len(cyclicN)+2, len(cyclicN))
		cs = append(cs, Case{
			Name: "restart/sweep/cache=off", Family: "restart", Method: "auto", Cache: "off", Params: params,
			Quick: quick, Full: !quick,
			Setup: func() (*Run, error) {
				sweep, err := restartSweep(cyclicN)
				ch := bagconsist.New(bagconsist.WithMaxNodes(50_000_000))
				return &Run{Instance: Instance{Colls: sweep}, Op: func() (*bagconsist.Report, error) {
					for _, c := range sweep {
						if _, err := ch.CheckGlobal(ctx, c); err != nil {
							return nil, err
						}
					}
					return nil, nil
				}}, err
			},
		}, Case{
			Name: "restart/sweep/cache=warm-restart", Family: "restart", Method: "auto", Cache: "warm", Params: params,
			Quick: quick, Full: !quick,
			Versus: &Versus{"restart/sweep/cache=off", "restart", params, "restart"},
			Setup:  func() (*Run, error) { return warmRestart(cyclicN) },
		})
	}
	return cs
}

// restartSweep mixes the NP side (3DCT integer searches, where a disk hit
// saves the most) with the polynomial side (acyclic joins, where the disk
// tier must still not be much slower than recomputing; the speedup shows
// where the break-even sits).
func restartSweep(cyclicN []int) ([]*core.Collection, error) {
	rng := rand.New(rand.NewSource(33))
	var sweep []*core.Collection
	for _, n := range cyclicN {
		c, err := threeDCT(rng, n)
		if err != nil {
			return nil, err
		}
		sweep = append(sweep, c)
	}
	for _, m := range []int{6, 10} {
		c, _, err := gen.RandomConsistent(rng, hypergraph.Path(m+1), 48, 1<<12, 4)
		if err != nil {
			return nil, err
		}
		sweep = append(sweep, c)
	}
	return sweep, nil
}

// warmRestart populates a store (unmeasured) and closes it, the shutdown,
// then reopens it under a brand-new empty RAM tier, the restart.
func warmRestart(cyclicN []int) (*Run, error) {
	sweep, err := restartSweep(cyclicN)
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp("", "bagstore-bench-")
	if err != nil {
		return nil, err
	}
	writer := bagconsist.New(bagconsist.WithPersistence(dir), bagconsist.WithMaxNodes(50_000_000))
	for _, c := range sweep {
		if _, err = writer.CheckGlobal(ctx, c); err != nil {
			break
		}
	}
	err = errors.Join(err, writer.Close())
	var st *bagconsist.Store
	if err == nil {
		st, err = bagconsist.OpenStore(dir)
	}
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	ram := bagconsist.NewCache(1024)
	ch := bagconsist.New(bagconsist.WithSharedCache(ram), bagconsist.WithStore(st), bagconsist.WithMaxNodes(50_000_000))
	hitsBefore := st.Stats().Hits
	return &Run{
		Instance: Instance{Colls: sweep},
		Op: func() (*bagconsist.Report, error) {
			// Empty the RAM tier so each pass measures disk serving,
			// exactly like the first requests after a restart.
			ram.Purge()
			for _, c := range sweep {
				if _, err := hit(ch.CheckGlobal(ctx, c)); err != nil {
					return nil, err
				}
			}
			if puts := st.Stats().Puts; puts != 0 {
				return nil, fmt.Errorf("restart sweep recomputed %d results (store writes during warm phase)", puts)
			}
			return nil, nil
		},
		DiskHits: func() uint64 { return st.Stats().Hits - hitsBefore },
		cleanup:  func() error { return errors.Join(st.Close(), os.RemoveAll(dir)) },
	}, nil
}

// The families below time the paper's results one engine call at a time
// (core), the ablations DESIGN.md calls out (ablation), the Section 6
// extensions (ext) and the public surface around a check (api), each in
// both sweeps at one list of sizes; and the Checker calls only
// cmd/experiments times (experiments, in no sweep).

// decide runs the engine's decision procedure on c and fails unless the
// verdict is consistent.
func decide(opts core.GlobalOptions) func(*core.Collection) op {
	return func(c *core.Collection) op {
		return func() (*bagconsist.Report, error) {
			dec, err := c.GloballyConsistent(opts)
			return holds(err == nil && dec.Consistent, err)
		}
	}
}

// search runs the engine's decision procedure on c and accepts either
// verdict.
func search(opts core.GlobalOptions) func(*core.Collection) op {
	return func(c *core.Collection) op {
		return func() (*bagconsist.Report, error) { _, err := c.GloballyConsistent(opts); return nil, err }
	}
}

func witnessAcyclic(opts core.GlobalOptions) func(*core.Collection) op {
	return func(c *core.Collection) op {
		return func() (*bagconsist.Report, error) { _, ok, err := c.WitnessAcyclic(opts); return holds(ok, err) }
	}
}

// e7Pair and e7Star are E7's instances.
func e7Pair(n int) func() (*bag.Bag, *bag.Bag, error) { return seededPair(7, n, 1<<12, 6) }

func e7Star(m int) func() (*core.Collection, error) {
	return seededColl(7, hypergraph.Star(m), 48, 1<<10, 4)
}

// relations projects a seeded random global bag over h onto h's edges.
func relations(seed int64, h *hypergraph.Hypergraph, support int, domain int) ([]*relational.Relation, error) {
	g, err := gen.RandomGlobalBag(rand.New(rand.NewSource(seed)), h, support, 1, domain)
	if err != nil {
		return nil, err
	}
	var rels []*relational.Relation
	for i := 0; i < h.NumEdges(); i++ {
		s, err := bag.NewSchema(h.Edge(i)...)
		if err != nil {
			return nil, err
		}
		m, err := g.Marginal(s)
		if err != nil {
			return nil, err
		}
		rels = append(rels, relational.FromBagSupport(m))
	}
	return rels, nil
}

func coreCases() []Case {
	var cs []Case
	add := func(method, params string, setup func() (*Run, error)) {
		cs = append(cs, newCase("core", method, "off", params, true, setup))
	}
	// E1: Lemma 2 / Corollary 1, two-bag consistency and witnesses.
	for _, n := range []int{64, 256, 1024, 4096} {
		add("pair-consistent", fmt.Sprintf("support=%d", n), onPair(pairInstance(n), func(r, s *bag.Bag) op {
			return func() (*bagconsist.Report, error) { return holds(core.PairConsistent(r, s)) }
		}))
	}
	for _, n := range []int{64, 256, 1024} {
		add("pair-witness", fmt.Sprintf("support=%d", n), onPair(seededPair(2, n, 1<<20, n/8+2), func(r, s *bag.Bag) op {
			return func() (*bagconsist.Report, error) { _, ok, err := core.PairWitness(r, s); return holds(ok, err) }
		}))
	}
	// E2: Section 3, the 2^(n-1) witnesses.
	for _, n := range []int{4, 6, 8, 10} {
		add("count-pair-witnesses", fmt.Sprintf("n=%d", n), onPair(func() (*bag.Bag, *bag.Bag, error) { return gen.Section3Family(n) }, func(r, s *bag.Bag) op {
			return func() (*bagconsist.Report, error) {
				got, err := core.CountPairWitnesses(r, s, ilp.Options{})
				if want := int64(1) << uint(n-1); err == nil && got != want {
					err = fmt.Errorf("count=%d want=%d", got, want)
				}
				return nil, err
			}
		}))
	}
	// E3: Theorem 2, Tseitin counterexamples on cyclic schemas, and the
	// Lemma 3 + Lemma 4 pipeline on a cycle embedded in a larger schema.
	for _, sc := range []struct {
		name string
		h    *hypergraph.Hypergraph
	}{{"C4", hypergraph.Cycle(4)}, {"C6", hypergraph.Cycle(6)}, {"H4", hypergraph.AllButOne(4)}, {"H5", hypergraph.AllButOne(5)}} {
		add("tseitin-pairwise", "schema="+sc.name, func() (*Run, error) {
			return &Run{Instance: Instance{Schema: sc.h}, Op: func() (*bagconsist.Report, error) {
				c, err := core.TseitinCollection(sc.h)
				if err != nil {
					return nil, err
				}
				return holds(c.PairwiseConsistent())
			}}, nil
		})
	}
	add("cyclic-counterexample", "schema=embedded-C4", func() (*Run, error) {
		h := hypergraph.Must([]string{"A", "B"}, []string{"B", "C"}, []string{"C", "D"}, []string{"D", "A"}, []string{"A", "E"}, []string{"B"})
		return &Run{Instance: Instance{Schema: h}, Op: func() (*bagconsist.Report, error) { _, err := core.CyclicCounterexample(h); return nil, err }}, nil
	})
	// E4: Theorem 3, minimal witness size bounds.
	add("minimize-witness", "schema=triangle,mult=1024", func() (*Run, error) {
		c, g, err := gen.RandomConsistent(rand.New(rand.NewSource(4)), hypergraph.Triangle(), 5, 1<<10, 2)
		return &Run{Instance: Instance{Coll: c, Global: g}, Op: func() (*bagconsist.Report, error) {
			min, err := c.MinimizeWitnessSupport(g, ilp.Options{})
			if err != nil {
				return nil, err
			}
			var bound float64
			for _, b := range c.Bags() {
				bound += b.BinarySize()
			}
			if float64(min.SupportSize()) > bound {
				return nil, fmt.Errorf("Theorem 3(3) bound violated")
			}
			return nil, nil
		}}, err
	})
	// E5: Example 1, the exponential uniform witness against the minimal
	// one the decision procedure builds.
	for _, n := range []int{8, 10, 12} {
		chain := func() (*core.Collection, error) { return gen.Example1Chain(n) }
		add("verify-uniform-witness", fmt.Sprintf("example1,n=%d", n), onColl(chain, func(c *core.Collection) op {
			return func() (*bagconsist.Report, error) {
				j, err := gen.Example1UniformWitness(n)
				if err != nil {
					return nil, err
				}
				return holds(c.VerifyWitness(j))
			}
		}))
		add("globally-consistent", fmt.Sprintf("example1,n=%d", n), onColl(chain, decide(core.GlobalOptions{})))
	}
	// E6: Theorem 4, the dichotomy. Boundary instances have margins
	// perturbed by rectangle swaps, so the exact search must work hard.
	for _, m := range []int{4, 8, 16} {
		add("globally-consistent", fmt.Sprintf("path,m=%d", m), onColl(acyclicInstance(hypergraph.Path(m+1), 1<<16), decide(core.GlobalOptions{})))
	}
	for _, n := range []int{2, 3, 4, 5} {
		add("globally-consistent", fmt.Sprintf("3dct,n=%d", n), onColl(cube(n), decide(core.GlobalOptions{MaxNodes: 50_000_000})))
	}
	for _, n := range []int{3, 4, 5} {
		add("globally-consistent", fmt.Sprintf("boundary-3dct,n=%d", n), onColl(func() (*core.Collection, error) {
			rng := rand.New(rand.NewSource(7))
			inst, err := gen.RandomThreeDCT(rng, n, 3)
			if err == nil {
				inst, err = gen.PerturbTriangleMargins(rng, inst, 2)
			}
			if err != nil {
				return nil, err
			}
			return inst.ToCollection()
		}, search(core.GlobalOptions{MaxNodes: 50_000_000})))
	}
	// E7: Theorems 5 and 6, witness construction.
	for _, n := range []int{64, 256} {
		add("minimal-pair-witness", fmt.Sprintf("support=%d", n), onPair(e7Pair(n), func(r, s *bag.Bag) op {
			return func() (*bagconsist.Report, error) {
				w, ok, err := core.MinimalPairWitness(r, s)
				if err == nil && ok && w.SupportSize() > r.SupportSize()+s.SupportSize() {
					err = fmt.Errorf("Theorem 5 bound violated")
				}
				return holds(ok, err)
			}
		}))
	}
	for _, m := range []int{8, 16, 32} {
		add("witness-acyclic", fmt.Sprintf("star,m=%d", m), onColl(e7Star(m), witnessAcyclic(core.GlobalOptions{})))
	}
	// E8: Lemmas 6 and 7, the NP-hardness lifts, and deciding lifted
	// Tseitin instances along the Lemma 6 chain: NP membership with the
	// schema as part of the input (Corollary 3). The instances stay
	// decidable as the cycle grows because the lifted structure is thin.
	lifted := func(n int) func() (*core.Collection, error) {
		return func() (*core.Collection, error) {
			c, err := core.TseitinCollection(hypergraph.Triangle())
			for k := 4; k <= n && err == nil; k++ {
				c, err = reductions.LiftCycleInstance(c)
			}
			return c, err
		}
	}
	add("lift-cycle", "from=C3,to=C6", onColl(lifted(3), func(c *core.Collection) op {
		return func() (*bagconsist.Report, error) {
			var err error
			for cur, n := c, 4; n <= 6 && err == nil; n++ {
				cur, err = reductions.LiftCycleInstance(cur)
			}
			return nil, err
		}
	}))
	add("lift-all-but-one", "from=H3", onColl(seededColl(8, hypergraph.AllButOne(3), 3, 2, 2), func(c *core.Collection) op {
		return func() (*bagconsist.Report, error) { _, err := reductions.LiftAllButOneInstance(c); return nil, err }
	}))
	for _, n := range []int{4, 6, 8} {
		add("globally-consistent", fmt.Sprintf("lifted-tseitin,n=%d", n), onColl(lifted(n), func(c *core.Collection) op {
			return func() (*bagconsist.Report, error) {
				dec, err := c.GloballyConsistent(core.GlobalOptions{MaxNodes: 10_000_000})
				if err == nil && dec.Consistent {
					err = fmt.Errorf("lifted Tseitin instance judged consistent")
				}
				return nil, err
			}
		}))
	}
	// E9: the set-semantics baseline. E9 also times the triangle at size
	// 8, which no sweep holds.
	for _, n := range []int{8, 16, 32, 64} {
		cs = append(cs, newCase("core", "relational-consistent", "off", fmt.Sprintf("triangle,size=%d", n), n > 8, func() (*Run, error) {
			rels, err := relations(9, hypergraph.Triangle(), n, n)
			return &Run{Instance: Instance{Rels: rels}, Op: func() (*bagconsist.Report, error) {
				ok, _, err := relational.GloballyConsistent(rels)
				return holds(ok, err)
			}}, err
		}))
	}
	for _, n := range []int{6, 8} {
		add("relational-consistent", fmt.Sprintf("3coloring,n=%d", n), func() (*Run, error) {
			edges := gen.RandomGraph(rand.New(rand.NewSource(9)), n, 0.4)
			if len(edges) == 0 {
				edges = [][2]int{{0, 1}}
			}
			_, rels, err := reductions.ThreeColoringInstance(n, edges)
			return &Run{Instance: Instance{Rels: rels}, Op: func() (*bagconsist.Report, error) {
				_, _, err := relational.GloballyConsistent(rels)
				return nil, err
			}}, err
		})
	}
	return cs
}

// ablationCases measure the cost and benefit of minimal pairwise
// witnesses inside the Theorem 6 composition, and the exact LP relaxation
// bound inside the integer search at both ends of its trade-off: on a
// light feasible triangle (n=3) plain search wins by two orders of
// magnitude; on the heavy tail, an infeasible 3DCT instance (n=4) whose
// plain search exhausts ~43k nodes, the root relaxation refutes it in one
// node.
func ablationCases() []Case {
	var cs []Case
	star := seededColl(11, hypergraph.Star(12), 48, 1<<10, 4)
	for _, arm := range []string{"minimal", "raw-flow"} {
		opts := core.GlobalOptions{SkipWitnessMinimization: arm == "raw-flow"}
		cs = append(cs, newCase("ablation", "witness-minimization", "off", "arm="+arm, true, onColl(star, witnessAcyclic(opts))))
	}
	light := func() (*core.Collection, error) { return threeDCT(rand.New(rand.NewSource(12)), 3) }
	heavy := func() (*core.Collection, error) {
		inst, err := gen.InfeasibleThreeDCT(rand.New(rand.NewSource(1315)), 4, 2, 50, 3_000_000)
		if err != nil {
			return nil, err
		}
		return inst.ToCollection()
	}
	for _, arm := range []struct {
		name  string
		build func() (*core.Collection, error)
		lp    bool
	}{{"plain", light, false}, {"lp-pruned", light, true}, {"plain-infeasible-n4", heavy, false}, {"lp-pruned-infeasible-n4", heavy, true}} {
		cs = append(cs, newCase("ablation", "lp-pruning", "off", "arm="+arm.name, true, onColl(arm.build, search(core.GlobalOptions{MaxNodes: 50_000_000, LPPruning: arm.lp}))))
	}
	return cs
}

// extCases measure the Section 6 extensions.
func extCases() []Case {
	h := hypergraph.Path(8)
	minCost := func(t bag.Tuple) int64 {
		if v, _ := t.Value("C"); v == "1" {
			return 3
		}
		return 1
	}
	return []Case{
		newCase("ext", "relaxed-global", "off", "schema=triangle", true, onColl(seededColl(13, hypergraph.Triangle(), 4, 6, 2), func(c *core.Collection) op {
			return func() (*bagconsist.Report, error) { return holds(c.RelaxedGloballyConsistent()) }
		})),
		newCase("ext", "full-reduce", "off", "schema=path8", true, func() (*Run, error) {
			rels, err := relations(14, h, 64, 6)
			return &Run{Instance: Instance{Schema: h, Rels: rels}, Op: func() (*bagconsist.Report, error) { _, err := relational.FullReduce(h, rels); return nil, err }}, err
		}),
		newCase("ext", "min-cost-pair-witness", "off", "n=5", true, onPair(func() (*bag.Bag, *bag.Bag, error) { return gen.Section3Family(5) }, func(r, s *bag.Bag) op {
			return func() (*bagconsist.Report, error) {
				_, ok, err := core.MinCostPairWitness(r, s, minCost)
				return holds(ok, err)
			}
		})),
	}
}

// apiCases measure the public surface around a check: the canonical
// fingerprint every cache-enabled query pays win or lose, the Report's
// JSON encoding, the batch layer's scaling over 32 distinct instances,
// the serving configuration the cache exists for (one instance 32 times)
// and the cache-hit floor a repeated query costs however hard the
// instance is.
func apiCases() []Case {
	var cs []Case
	for i, m := range []int{2, 8} {
		cs = append(cs, newCase("api", "fingerprint", "off", fmt.Sprintf("star,m=%d", m), true, onColl(func() (*core.Collection, error) {
			// Both stars are drawn from one seed, m=2 first.
			rng := rand.New(rand.NewSource(21))
			var c *core.Collection
			var err error
			for _, m := range []int{2, 8}[:i+1] {
				if c, _, err = gen.RandomConsistent(rng, hypergraph.Star(m), 48, 1<<10, 4); err != nil {
					return nil, err
				}
			}
			return c, nil
		}, func(c *core.Collection) op {
			return func() (*bagconsist.Report, error) { _, err := canon.Bags(c.Bags()); return nil, err }
		})))
	}
	cs = append(cs, newCase("api", "report-json", "off", "star,m=8", true, func() (*Run, error) {
		c, err := seededColl(21, hypergraph.Star(8), 48, 1<<10, 4)()
		if err != nil {
			return nil, err
		}
		rep, err := bagconsist.New().CheckGlobal(ctx, c)
		return &Run{Instance: Instance{Coll: c}, Op: func() (*bagconsist.Report, error) { _, err := json.Marshal(rep); return nil, err }}, err
	}))
	for _, workers := range []int{1, 4, 8} {
		cs = append(cs, newCase("api", "check-batch", "off", fmt.Sprintf("size=32,distinct=32,workers=%d", workers), true, func() (*Run, error) {
			return batchOf(32, 32, true, bagconsist.WithParallelism(workers))
		}))
	}
	cs = append(cs, newCase("api", "check-batch", "warm", "size=32,distinct=1,workers=8", true, func() (*Run, error) {
		return batchOf(32, 1, true, bagconsist.WithParallelism(8), bagconsist.WithCache(64))
	}))
	cs = append(cs, newCase("api", "check-global", "warm", "star,m=8", true, func() (*Run, error) {
		c, err := seededColl(6, hypergraph.Star(8), 48, 1<<10, 4)()
		if err != nil {
			return nil, err
		}
		ch := bagconsist.New(bagconsist.WithCache(64))
		_, err = ch.CheckGlobal(ctx, c) // populate
		return &Run{Instance: Instance{Coll: c}, Op: func() (*bagconsist.Report, error) { return hit(ch.CheckGlobal(ctx, c)) }}, err
	}))
	return cs
}

// experimentCases are the Checker calls cmd/experiments times that no
// bench family measures: E1's scaling rows (witness minimization off, so
// the witness is the raw flow) and E7's witness rows.
func experimentCases() []Case {
	var cs []Case
	add := func(method, params string, setup func() (*Run, error)) {
		cs = append(cs, newCase("experiments", method, "off", params, false, setup))
	}
	for _, n := range []int{64, 256, 1024, 4096} {
		e1 := seededPair(1, n, 1<<20, int(math.Sqrt(float64(n)))+2)
		raw := func() *bagconsist.Checker { return bagconsist.New(bagconsist.WithWitnessMinimization(false)) }
		add("e1-check-pair", fmt.Sprintf("support=%d", n), onPair(e1, func(r, s *bag.Bag) op {
			ch := raw()
			return func() (*bagconsist.Report, error) { return ch.CheckPair(ctx, r, s) }
		}))
		add("e1-pair-witness", fmt.Sprintf("support=%d", n), onPair(e1, func(r, s *bag.Bag) op {
			ch := raw()
			return func() (*bagconsist.Report, error) { return ch.PairWitness(ctx, r, s) }
		}))
	}
	for _, n := range []int{16, 64, 256} {
		add("e7-pair-witness", fmt.Sprintf("support=%d", n), onPair(e7Pair(n), func(r, s *bag.Bag) op {
			ch := bagconsist.New()
			return func() (*bagconsist.Report, error) { return ch.PairWitness(ctx, r, s) }
		}))
	}
	for _, m := range []int{8, 16, 32, 64} {
		add("e7-witness", fmt.Sprintf("star,m=%d", m), onColl(e7Star(m), func(c *core.Collection) op {
			ch := bagconsist.New()
			return func() (*bagconsist.Report, error) { return ch.Witness(ctx, c) }
		}))
	}
	return cs
}

// ingestCases measure decode throughput of the wire formats on one
// instance per size: text, JSON, bagcol from memory, and bagcol through
// the mmap path (open, decode and close per op, the cold-file shape a
// bulk load has). The mmap case runs first at each size, so its RSS
// snapshot is taken before the heap-heavy text and JSON decodes inflate
// the high-water mark. Each binary path is a speedup over the text parser.
func ingestCases() []Case {
	var cs []Case
	for _, n := range []int{10_000, 100_000, 1_000_000, 10_000_000} {
		for _, format := range []string{"bagcol-mmap", "bagcol", "json", "text"} {
			if format == "json" && n >= 10_000_000 {
				continue // by far the slowest path; the 1e6 point places it
			}
			c := Case{
				Name:   fmt.Sprintf("ingest/%s/cache=off/n=%d", format, n),
				Family: "ingest", Method: "decode", Cache: "off", Params: fmt.Sprintf("n=%d,format=%s", n, format),
				Quick: n <= 100_000, Full: true,
				Setup: func() (*Run, error) { return ingestRun(n, format) },
			}
			if format != "json" && format != "text" {
				c.Versus = &Versus{fmt.Sprintf("ingest/text/cache=off/n=%d", n), "ingest", fmt.Sprintf("n=%d", n), format}
			}
			cs = append(cs, c)
		}
	}
	return cs
}

// ingestSink keeps decode results observable so the measured loops
// cannot be optimized away.
var ingestSink int

func sink[T any](bags []T, err error) (*bagconsist.Report, error) {
	ingestSink += len(bags)
	return nil, err
}

func ingestRun(n int, format string) (*Run, error) {
	enc, err := ingestInstance(n)
	if err != nil {
		return nil, err
	}
	run := &Run{Tuples: n}
	switch format {
	case "bagcol-mmap":
		dir, err := os.MkdirTemp("", "bagcol-bench-")
		if err != nil {
			return nil, err
		}
		path := filepath.Join(dir, fmt.Sprintf("ingest-%d.bagcol", n))
		run.cleanup = func() error { return os.RemoveAll(dir) }
		run.Bytes, run.Op = enc.col, func() (*bagconsist.Report, error) {
			mc, err := bagio.OpenMapped(path)
			if err != nil {
				return nil, err
			}
			ingestSink += len(mc.Bags)
			return nil, mc.Close()
		}
		if err := os.WriteFile(path, enc.col, 0o644); err != nil {
			return nil, errors.Join(err, run.Close())
		}
	case "bagcol":
		run.Bytes, run.Op = enc.col, func() (*bagconsist.Report, error) {
			_, bags, err := bagio.DecodeColumnar(enc.col)
			return sink(bags, err)
		}
	case "json":
		run.Bytes, run.Op = enc.json, func() (*bagconsist.Report, error) { return sink(bagio.DecodeJSON(bytes.NewReader(enc.json))) }
	case "text":
		run.Bytes, run.Op = enc.text, func() (*bagconsist.Report, error) { return sink(bagio.ParseCollection(bytes.NewReader(enc.text))) }
	}
	return run, nil
}

type encoded struct{ text, json, col []byte }

// ingestInstance synthesizes a two-relation instance with n total tuples
// (r over {A,B}, s over {B,C}, n/2 distinct rows each, value domains of
// ~sqrt(n/2) per attribute) and returns its three serialized forms. The
// text bytes are written straight from the generating loop, the shape a
// warehouse export would have, not the canonical sorted order, so the
// text decode measurement includes realistic, unordered input.
func ingestInstance(n int) (*encoded, error) {
	rows := max(n/2, 1)
	d := int(math.Ceil(math.Sqrt(float64(rows))))
	var tb, jb, cb bytes.Buffer
	tb.Grow(rows * 40)
	for _, b := range [][3]string{{"r", "A", "B"}, {"s", "B", "C"}} {
		fmt.Fprintf(&tb, "bag %s\nschema %s %s\n", b[0], b[1], b[2])
		for i := 0; i < rows; i++ {
			fmt.Fprintf(&tb, "%s%d %s%d : %d\n", b[1], i/d, b[2], i%d, i%9+1)
		}
		tb.WriteByte('\n')
	}
	bags, err := bagio.ParseCollection(bytes.NewReader(tb.Bytes()))
	if err == nil {
		err = bagio.EncodeJSON(&jb, bags)
	}
	if err == nil {
		err = bagio.EncodeColumnar(&cb, "ingest", bags)
	}
	return &encoded{tb.Bytes(), jb.Bytes(), cb.Bytes()}, err
}
