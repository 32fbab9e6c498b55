package bagconsist_test

import (
	"context"
	"math/rand"
	"sync"
	"testing"

	"bagconsistency/internal/gen"
	"bagconsistency/internal/hypergraph"
	"bagconsistency/pkg/bagconsist"
)

func TestFingerprintBagsStable(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	c, _, err := gen.RandomConsistent(rng, hypergraph.Path(4), 16, 1<<8, 3)
	if err != nil {
		t.Fatal(err)
	}
	fp, err := bagconsist.FingerprintCollection(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(fp) != 64 {
		t.Fatalf("fingerprint %q is not 64 hex chars", fp)
	}
	// Invariance: tuple order and consistent value renaming do not
	// change the identity — the property hot-key accounting relies on.
	perm, err := bagconsist.FingerprintCollection(permutedCopy(t, rng, c))
	if err != nil {
		t.Fatal(err)
	}
	ren, err := bagconsist.FingerprintCollection(renamedCopy(t, c))
	if err != nil {
		t.Fatal(err)
	}
	if perm != fp || ren != fp {
		t.Fatalf("fingerprint not invariant: base=%s perm=%s renamed=%s", fp, perm, ren)
	}
	// A genuinely different instance gets a different identity.
	other, _, err := gen.RandomConsistent(rand.New(rand.NewSource(2)), hypergraph.Path(4), 16, 1<<8, 3)
	if err != nil {
		t.Fatal(err)
	}
	ofp, err := bagconsist.FingerprintCollection(other)
	if err != nil {
		t.Fatal(err)
	}
	if ofp == fp {
		t.Fatal("distinct instances collided")
	}
}

func TestFingerprintErrors(t *testing.T) {
	if _, err := bagconsist.FingerprintBags(nil); err == nil {
		t.Fatal("empty instance must not fingerprint")
	}
	if _, err := bagconsist.FingerprintPair(nil, nil); err == nil {
		t.Fatal("nil bags must not fingerprint")
	}
	if _, err := bagconsist.FingerprintCollection(nil); err == nil {
		t.Fatal("nil collection must not fingerprint")
	}
}

// TestFingerprintMatchesCachePath: the public fast path and the cache's
// internal fingerprinting agree — FingerprintPair/Collection compute
// exactly the fp a CheckObserver reports for a global check over the same
// bags. Pair checks never reach the cache, so they are not observed.
func TestFingerprintMatchesCachePath(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	r, s, err := gen.RandomConsistentPair(rng, 16, 1<<8, 3)
	if err != nil {
		t.Fatal(err)
	}
	pair, err := bagconsist.NewCollection2(r, s)
	if err != nil {
		t.Fatal(err)
	}
	coll, _, err := gen.RandomConsistent(rng, hypergraph.Path(3), 12, 1<<8, 3)
	if err != nil {
		t.Fatal(err)
	}

	type obs struct {
		kind string
		fp   string
		hit  bool
	}
	var mu sync.Mutex
	var seen []obs
	chk := bagconsist.New(
		bagconsist.WithCache(64),
		bagconsist.WithCheckObserver(func(_ context.Context, kind, fp string, hit bool) {
			mu.Lock()
			seen = append(seen, obs{kind, fp, hit})
			mu.Unlock()
		}),
	)

	ctx := context.Background()
	if _, err := chk.CheckPair(ctx, r, s); err != nil {
		t.Fatal(err)
	}
	for _, c := range []*bagconsist.Collection{pair, pair, coll} {
		if _, err := chk.CheckGlobal(ctx, c); err != nil {
			t.Fatal(err)
		}
	}

	pairFP, err := bagconsist.FingerprintPair(r, s)
	if err != nil {
		t.Fatal(err)
	}
	collFP, err := bagconsist.FingerprintCollection(coll)
	if err != nil {
		t.Fatal(err)
	}

	mu.Lock()
	defer mu.Unlock()
	if len(seen) != 3 {
		t.Fatalf("observer saw %d checks, want 3: %+v", len(seen), seen)
	}
	want := []obs{
		{"global", pairFP, false}, // first check of the pair computes
		{"global", pairFP, true},  // repeat hits
		{"global", collFP, false},
	}
	for i := range want {
		if seen[i] != want[i] {
			t.Errorf("observation %d = %+v, want %+v", i, seen[i], want[i])
		}
	}
}

// TestObserverNotCalledWithoutCache: the observer rides the cache path,
// so a cacheless Checker never observes (documented behavior).
func TestObserverNotCalledWithoutCache(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	r, s, err := gen.RandomConsistentPair(rng, 8, 1<<6, 3)
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	pair, err := bagconsist.NewCollection2(r, s)
	if err != nil {
		t.Fatal(err)
	}
	chk := bagconsist.New(
		bagconsist.WithCheckObserver(func(context.Context, string, string, bool) { calls++ }),
	)
	if _, err := chk.CheckGlobal(context.Background(), pair); err != nil {
		t.Fatal(err)
	}
	if calls != 0 {
		t.Fatalf("observer called %d times without a cache", calls)
	}
}

// TestObserverSeesRenamedInstanceAsSameKey: a value-renamed repeat of a
// cached instance observes as a hit on the same fingerprint — the
// whole point of canonical hot keys.
func TestObserverSeesRenamedInstanceAsSameKey(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	coll, _, err := gen.RandomConsistent(rng, hypergraph.Star(4), 16, 1<<8, 3)
	if err != nil {
		t.Fatal(err)
	}
	var fps []string
	var hits []bool
	chk := bagconsist.New(
		bagconsist.WithCache(64),
		bagconsist.WithCheckObserver(func(_ context.Context, _, fp string, hit bool) {
			fps = append(fps, fp)
			hits = append(hits, hit)
		}),
	)
	ctx := context.Background()
	if _, err := chk.CheckGlobal(ctx, coll); err != nil {
		t.Fatal(err)
	}
	if _, err := chk.CheckGlobal(ctx, renamedCopy(t, coll)); err != nil {
		t.Fatal(err)
	}
	if len(fps) != 2 || fps[0] != fps[1] {
		t.Fatalf("renamed instance observed under a different key: %v", fps)
	}
	if hits[0] || !hits[1] {
		t.Fatalf("hit sequence wrong: %v", hits)
	}
}
