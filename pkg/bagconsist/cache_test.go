package bagconsist_test

import (
	"context"
	"errors"
	"math/rand"
	"strconv"
	"sync"
	"testing"

	"bagconsistency/internal/bag"
	"bagconsistency/internal/gen"
	"bagconsistency/internal/hypergraph"
	"bagconsistency/internal/store"
	"bagconsistency/pkg/bagconsist"
)

// permutedCopy rebuilds every bag of the collection inserting tuples in a
// shuffled order; the instance is equal as a multiset but constructed
// differently.
func permutedCopy(t testing.TB, rng *rand.Rand, c *bagconsist.Collection) *bagconsist.Collection {
	t.Helper()
	bags := make([]*bagconsist.Bag, c.Len())
	for i, b := range c.Bags() {
		tuples := b.Tuples()
		rng.Shuffle(len(tuples), func(a, z int) { tuples[a], tuples[z] = tuples[z], tuples[a] })
		nb := bagconsist.NewBag(b.Schema())
		for _, tup := range tuples {
			if err := nb.AddTuple(tup, b.CountTuple(tup)); err != nil {
				t.Fatal(err)
			}
		}
		bags[i] = nb
	}
	out, err := bagconsist.NewCollection(c.Hypergraph(), bags)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// renamedCopy applies a per-attribute value bijection consistently across
// the collection's bags.
func renamedCopy(t testing.TB, c *bagconsist.Collection) *bagconsist.Collection {
	t.Helper()
	rename := make(map[string]map[string]string)
	mapped := func(attr, v string) string {
		if rename[attr] == nil {
			rename[attr] = make(map[string]string)
		}
		if n, ok := rename[attr][v]; ok {
			return n
		}
		n := attr + "_renamed_" + strconv.Itoa(len(rename[attr]))
		rename[attr][v] = n
		return n
	}
	bags := make([]*bagconsist.Bag, c.Len())
	for i, b := range c.Bags() {
		attrs := b.Schema().Attrs()
		nb := bagconsist.NewBag(b.Schema())
		err := b.Each(func(tup bag.Tuple, count int64) error {
			vals := tup.Values()
			for j := range vals {
				vals[j] = mapped(attrs[j], vals[j])
			}
			return nb.Add(vals, count)
		})
		if err != nil {
			t.Fatal(err)
		}
		bags[i] = nb
	}
	out, err := bagconsist.NewCollection(c.Hypergraph(), bags)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestCacheHitOnRepeatCheckGlobal(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(100))
	c, _, err := gen.RandomConsistent(rng, hypergraph.Star(6), 32, 1<<10, 4)
	if err != nil {
		t.Fatal(err)
	}
	checker := bagconsist.New(bagconsist.WithCache(128))
	cold, err := checker.CheckGlobal(ctx, c)
	if err != nil {
		t.Fatal(err)
	}
	if cold.CacheHit {
		t.Fatal("first query reported a cache hit")
	}
	warm, err := checker.CheckGlobal(ctx, c)
	if err != nil {
		t.Fatal(err)
	}
	if !warm.CacheHit {
		t.Fatal("repeat query missed the cache")
	}
	if warm.Consistent != cold.Consistent || warm.Method != cold.Method || warm.WitnessSupport != cold.WitnessSupport {
		t.Fatalf("cached report differs: cold=%+v warm=%+v", cold, warm)
	}
	w, err := warm.WitnessBag()
	if err != nil {
		t.Fatal(err)
	}
	ok, err := c.VerifyWitness(w)
	if err != nil || !ok {
		t.Fatalf("cached witness invalid: ok=%v err=%v", ok, err)
	}
}

func TestCacheHitOnPermutedInstance(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(101))
	c, _, err := gen.RandomConsistent(rng, hypergraph.Path(5), 48, 1<<12, 4)
	if err != nil {
		t.Fatal(err)
	}
	checker := bagconsist.New(bagconsist.WithCache(128))
	if _, err := checker.CheckGlobal(ctx, c); err != nil {
		t.Fatal(err)
	}
	rep, err := checker.CheckGlobal(ctx, permutedCopy(t, rng, c))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.CacheHit {
		t.Fatal("tuple-permuted instance missed the cache")
	}
}

// TestCacheHitOnRenamedInstanceTranslatesWitness is the deep end of the
// canonical cache: a value-renamed copy must hit, and the witness it gets
// back must be valid for the RENAMED instance, not the cached one.
func TestCacheHitOnRenamedInstanceTranslatesWitness(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(102))
	c, _, err := gen.RandomConsistent(rng, hypergraph.Star(5), 24, 1<<10, 4)
	if err != nil {
		t.Fatal(err)
	}
	checker := bagconsist.New(bagconsist.WithCache(128))
	cold, err := checker.CheckGlobal(ctx, c)
	if err != nil {
		t.Fatal(err)
	}
	renamed := renamedCopy(t, c)
	warm, err := checker.CheckGlobal(ctx, renamed)
	if err != nil {
		t.Fatal(err)
	}
	if !warm.CacheHit {
		t.Skip("renamed instance did not hit (refinement tie); invariance is best-effort")
	}
	if warm.Consistent != cold.Consistent {
		t.Fatal("cached decision differs under renaming")
	}
	w, err := warm.WitnessBag()
	if err != nil {
		t.Fatal(err)
	}
	ok, err := renamed.VerifyWitness(w)
	if err != nil || !ok {
		t.Fatalf("translated witness invalid for the renamed instance: ok=%v err=%v", ok, err)
	}
}

func TestCacheCyclicInstanceSkipsSearch(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(103))
	inst, err := gen.RandomThreeDCT(rng, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	c, err := inst.ToCollection()
	if err != nil {
		t.Fatal(err)
	}
	sc := bagconsist.NewCache(64)
	checker := bagconsist.New(bagconsist.WithSharedCache(sc), bagconsist.WithMaxNodes(50_000_000))
	cold, err := checker.CheckGlobal(ctx, c)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := checker.CheckGlobal(ctx, c)
	if err != nil {
		t.Fatal(err)
	}
	if !warm.CacheHit || warm.Consistent != cold.Consistent || warm.Nodes != cold.Nodes {
		t.Fatalf("cyclic repeat not served from cache: %+v", warm)
	}
	st := sc.Stats()
	if st.Hits < 1 || st.Entries < 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestCacheHitRespectsCancellation pins the contract that a cached
// result never masks a dead context: cancellation behaves identically on
// cached and uncached Checkers.
func TestCacheHitRespectsCancellation(t *testing.T) {
	rng := rand.New(rand.NewSource(108))
	c, _, err := gen.RandomConsistent(rng, hypergraph.Path(4), 16, 1<<8, 3)
	if err != nil {
		t.Fatal(err)
	}
	checker := bagconsist.New(bagconsist.WithCache(64))
	if _, err := checker.CheckGlobal(context.Background(), c); err != nil {
		t.Fatal(err)
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := checker.CheckGlobal(cancelled, c); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled even on a cached instance", err)
	}
}

func TestCacheKeyedByOptions(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(104))
	c, _, err := gen.RandomConsistent(rng, hypergraph.Path(4), 16, 1<<8, 3)
	if err != nil {
		t.Fatal(err)
	}
	sc := bagconsist.NewCache(64)
	auto := bagconsist.New(bagconsist.WithSharedCache(sc))
	capped := bagconsist.New(bagconsist.WithSharedCache(sc), bagconsist.WithMaxNodes(123456))
	if _, err := auto.CheckGlobal(ctx, c); err != nil {
		t.Fatal(err)
	}
	crep, err := capped.CheckGlobal(ctx, c)
	if err != nil {
		t.Fatal(err)
	}
	if crep.CacheHit {
		t.Fatal("differently configured Checker hit the other's entry")
	}
	// Same options, same shared cache: hit.
	again, err := bagconsist.New(bagconsist.WithSharedCache(sc)).CheckGlobal(ctx, c)
	if err != nil {
		t.Fatal(err)
	}
	if !again.CacheHit {
		t.Fatal("identically configured Checker missed the shared cache")
	}
}

// TestCachePairCheck pins the uncached pair path: every CheckPair —
// repeated, tuple-permuted or value-renamed — runs the Lemma 2 marginal
// test and leaves the cache, the store and the observer untouched. A
// CheckGlobal over the same two bags still caches, under the global kind.
func TestCachePairCheck(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(105))
	r, s, err := gen.RandomConsistentPair(rng, 32, 1<<10, 5)
	if err != nil {
		t.Fatal(err)
	}
	coll, err := bagconsist.NewCollection2(r, s)
	if err != nil {
		t.Fatal(err)
	}
	heavier := s.Clone()
	if err := heavier.AddTuple(s.Tuples()[0], 1); err != nil {
		t.Fatal(err)
	}
	perm := permutedCopy(t, rng, coll)
	renamed := renamedCopy(t, coll)
	pairs := [][2]*bagconsist.Bag{
		{r, s}, {r, s}, {perm.Bag(0), perm.Bag(1)}, {renamed.Bag(0), renamed.Bag(1)}, {r, heavier}, {r, heavier},
	}

	dir := t.TempDir()
	st := openStore(t, dir)
	sc := bagconsist.NewCache(64)
	observed := 0
	checker := bagconsist.New(
		bagconsist.WithSharedCache(sc),
		bagconsist.WithStore(st),
		bagconsist.WithCheckObserver(func(context.Context, string, string, bool) { observed++ }),
	)
	cacheBefore, storeBefore := sc.Stats(), st.Stats()
	for i, p := range pairs {
		want, err := bagconsist.PairConsistent(p[0], p[1])
		if err != nil {
			t.Fatal(err)
		}
		rep, err := checker.CheckPair(ctx, p[0], p[1])
		if err != nil {
			t.Fatal(err)
		}
		if rep.CacheHit || rep.Consistent != want || rep.Method != "marginal" {
			t.Fatalf("pair %d: got %+v, want the uncached marginal verdict %v", i, rep, want)
		}
	}
	if got := sc.Stats(); got != cacheBefore || sc.Len() != 0 {
		t.Fatalf("pair checks moved the cache: %+v, then %+v (%d entries)", cacheBefore, got, sc.Len())
	}
	if got := st.Stats(); got != storeBefore || st.Len() != 0 {
		t.Fatalf("pair checks moved the store: %+v, then %+v", storeBefore, got)
	}
	if observed != 0 {
		t.Fatalf("observer saw %d pair checks, want none", observed)
	}

	if rep, err := checker.CheckGlobal(ctx, coll); err != nil || rep.CacheHit {
		t.Fatalf("first global check: %+v, %v", rep, err)
	}
	if rep, err := checker.CheckGlobal(ctx, renamed); err != nil || !rep.CacheHit {
		t.Fatalf("renamed global repeat: %+v, %v", rep, err)
	}
	if sc.Len() != 1 || st.Len() != 1 || observed != 2 {
		t.Fatalf("global checks: %d cache entries, %d store records, %d observations; want 1, 1, 2", sc.Len(), st.Len(), observed)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	v, err := store.Verify(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(v.Kinds) != 1 || v.Kinds[2] != 1 {
		t.Fatalf("store holds kinds %v, want one global (kind 2) record", v.Kinds)
	}
}

func TestCacheBatchDeduplicates(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(106))
	base, _, err := gen.RandomConsistent(rng, hypergraph.Star(6), 32, 1<<10, 4)
	if err != nil {
		t.Fatal(err)
	}
	const copies = 24
	instances := make([]*bagconsist.Collection, copies)
	for i := range instances {
		instances[i] = permutedCopy(t, rng, base)
	}
	sc := bagconsist.NewCache(64)
	checker := bagconsist.New(bagconsist.WithSharedCache(sc), bagconsist.WithParallelism(8))
	reports, err := checker.CheckBatch(ctx, instances)
	if err != nil {
		t.Fatal(err)
	}
	hits := 0
	for i, rep := range reports {
		if rep.Error != "" {
			t.Fatalf("slot %d failed: %s", i, rep.Error)
		}
		if !rep.Consistent {
			t.Fatalf("slot %d inconsistent", i)
		}
		if rep.CacheHit {
			hits++
		}
	}
	// Every slot but the coalescing leader either hit the LRU or shared
	// the leader's in-flight computation.
	if hits != copies-1 {
		t.Fatalf("hits = %d, want %d", hits, copies-1)
	}
}

// TestCacheConcurrentBatchRace hammers one shared cache from concurrent
// batches of duplicated and distinct instances; run under -race this is
// the required race-detector coverage for the cache path.
func TestCacheConcurrentBatchRace(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(107))
	var pool []*bagconsist.Collection
	for i := 0; i < 6; i++ {
		c, _, err := gen.RandomConsistent(rng, hypergraph.Path(4), 24, 1<<8, 4)
		if err != nil {
			t.Fatal(err)
		}
		pool = append(pool, c)
	}
	sc := bagconsist.NewCache(32)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(200 + w)))
			checker := bagconsist.New(bagconsist.WithSharedCache(sc), bagconsist.WithParallelism(4))
			for iter := 0; iter < 5; iter++ {
				batch := make([]*bagconsist.Collection, 12)
				for i := range batch {
					batch[i] = permutedCopy(t, rng, pool[rng.Intn(len(pool))])
				}
				reports, err := checker.CheckBatch(ctx, batch)
				if err != nil {
					t.Error(err)
					return
				}
				for i, rep := range reports {
					if rep.Error != "" {
						t.Errorf("slot %d: %s", i, rep.Error)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	st := sc.Stats()
	if st.Hits == 0 {
		t.Fatal("concurrent batches produced no cache hits")
	}
}
