package bagconsist_test

import (
	"context"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"bagconsistency/internal/gen"
	"bagconsistency/internal/hypergraph"
	"bagconsistency/pkg/bagconsist"
)

// cyclicInstance returns a consistent cyclic-schema instance whose global
// check runs the integer search — the workload where a disk hit pays.
func cyclicInstance(t testing.TB, seed int64, n int) *bagconsist.Collection {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	inst, err := gen.RandomThreeDCT(rng, n, 3)
	if err != nil {
		t.Fatal(err)
	}
	coll, err := inst.ToCollection()
	if err != nil {
		t.Fatal(err)
	}
	return coll
}

// openStore opens the store in dir and closes it when the test ends;
// closing it earlier, to restart on the same directory, is allowed.
func openStore(t testing.TB, dir string) *bagconsist.Store {
	t.Helper()
	st, err := bagconsist.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

// TestWarmStartServesFromDisk is the restart contract: results computed
// by one Checker are served by a brand-new Checker (fresh RAM tier) on
// the same data dir with CacheHit set and zero engine recomputation.
func TestWarmStartServesFromDisk(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	coll := cyclicInstance(t, 11, 3)

	st1 := openStore(t, dir)
	first := bagconsist.New(bagconsist.WithStore(st1))
	rep, err := first.CheckGlobal(ctx, coll)
	if err != nil {
		t.Fatal(err)
	}
	if rep.CacheHit || !rep.Consistent {
		t.Fatalf("first computation: %+v", rep)
	}
	wantNodes := rep.Nodes
	if st, ok := first.StoreStats(); !ok || st.Puts != 1 {
		t.Fatalf("write-through missing: %+v ok=%v", st, ok)
	}
	if err := st1.Close(); err != nil {
		t.Fatal(err)
	}

	// "Restart": a new Checker, new empty RAM cache, same directory.
	second := bagconsist.New(bagconsist.WithStore(openStore(t, dir)))
	rep2, err := second.CheckGlobal(ctx, coll)
	if err != nil {
		t.Fatal(err)
	}
	if !rep2.CacheHit {
		t.Fatalf("warm start did not hit: %+v", rep2)
	}
	if rep2.Nodes != wantNodes || rep2.Method != rep.Method || rep2.Consistent != rep.Consistent {
		t.Fatalf("disk result differs from original: %+v vs %+v", rep2, rep)
	}
	st, _ := second.StoreStats()
	if st.Hits != 1 || st.Puts != 0 {
		t.Fatalf("expected exactly one disk hit and zero writes (no recomputation): %+v", st)
	}

	// The disk hit promoted the result into RAM: the next query must not
	// touch the store again.
	if _, err := second.CheckGlobal(ctx, coll); err != nil {
		t.Fatal(err)
	}
	if st2, _ := second.StoreStats(); st2.Gets != st.Gets {
		t.Fatalf("promotion failed: disk consulted again (%d -> %d gets)", st.Gets, st2.Gets)
	}
}

// TestWarmStartTranslatesRenamedWitness checks the content-addressed
// property end to end: after a restart, a value-renamed variant of a
// stored instance hits on disk and its witness is re-expressed in the
// new instance's values.
func TestWarmStartTranslatesRenamedWitness(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	rng := rand.New(rand.NewSource(5))
	coll, _, err := gen.RandomConsistent(rng, hypergraph.Path(4), 16, 64, 3)
	if err != nil {
		t.Fatal(err)
	}

	st1 := openStore(t, dir)
	first := bagconsist.New(bagconsist.WithStore(st1))
	if _, err := first.CheckGlobal(ctx, coll); err != nil {
		t.Fatal(err)
	}
	if err := st1.Close(); err != nil {
		t.Fatal(err)
	}

	variant := renamedCopy(t, coll)
	second := bagconsist.New(bagconsist.WithStore(openStore(t, dir)))
	rep, err := second.CheckGlobal(ctx, variant)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.CacheHit || rep.Witness == nil {
		t.Fatalf("renamed variant after restart: %+v", rep)
	}
	w, err := rep.WitnessBag()
	if err != nil {
		t.Fatal(err)
	}
	ok, err := second.VerifyWitness(variant, w)
	if err != nil || !ok {
		t.Fatalf("disk witness does not verify against the renamed instance: ok=%v err=%v", ok, err)
	}
}

// TestPersistenceKeysSeparateKinds: only global checks reach the disk
// tier. A pair check over two bags neither reads nor writes a record, and
// the global check over the same bags computes and stores its own.
func TestPersistenceKeysSeparateKinds(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	r, s, err := gen.Section3Family(3)
	if err != nil {
		t.Fatal(err)
	}

	ck := bagconsist.New(bagconsist.WithStore(openStore(t, dir)))
	if _, err := ck.CheckPair(ctx, r, s); err != nil {
		t.Fatal(err)
	}
	st, _ := ck.StoreStats()
	if st.Records != 0 || st.Gets != 0 || st.Puts != 0 {
		t.Fatalf("pair check touched the store: %+v", st)
	}
	coll, err := bagconsist.NewCollection2(r, s)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := ck.CheckGlobal(ctx, coll)
	if err != nil {
		t.Fatal(err)
	}
	if rep.CacheHit {
		t.Fatal("global query served from the pair check")
	}
	if st, _ = ck.StoreStats(); st.Records != 1 {
		t.Fatalf("global record not stored: %+v", st)
	}
}

// TestOpenStoreBadDirFails: a store that cannot be opened is an error
// from OpenStore itself, before any Checker exists to serve queries.
func TestOpenStoreBadDirFails(t *testing.T) {
	// A file where the directory should be.
	fpath := filepath.Join(t.TempDir(), "not-a-dir")
	if err := os.WriteFile(fpath, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := bagconsist.OpenStore(filepath.Join(fpath, "sub"))
	if err == nil {
		st.Close()
		t.Fatal("OpenStore under a regular file succeeded")
	}
}

// TestSharedStoreAcrossCheckers: one store backing differently configured
// checkers must not cross-contaminate (options are part of the key).
func TestSharedStoreAcrossCheckers(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	st := openStore(t, dir)
	coll := cyclicInstance(t, 7, 2)

	a := bagconsist.New(bagconsist.WithStore(st))
	b := bagconsist.New(bagconsist.WithStore(st), bagconsist.WithMaxNodes(123456))
	if _, err := a.CheckGlobal(ctx, coll); err != nil {
		t.Fatal(err)
	}
	rep, err := b.CheckGlobal(ctx, coll)
	if err != nil {
		t.Fatal(err)
	}
	if rep.CacheHit {
		t.Fatal("checker with different options hit the other's record")
	}
	if st.Len() != 2 {
		t.Fatalf("expected two records (one per configuration), got %d", st.Len())
	}
}
