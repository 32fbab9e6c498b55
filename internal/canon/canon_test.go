package canon

import (
	"math/rand"
	"strconv"
	"testing"

	"bagconsistency/internal/bag"
	"bagconsistency/internal/gen"
	"bagconsistency/internal/hypergraph"
	"bagconsistency/internal/table"
)

func mustPair(t testing.TB, rng *rand.Rand, support int) (*bag.Bag, *bag.Bag) {
	t.Helper()
	r, s, err := gen.RandomConsistentPair(rng, support, 1<<12, support/4+2)
	if err != nil {
		t.Fatal(err)
	}
	return r, s
}

func fingerprint(t testing.TB, bags ...*bag.Bag) *Canonical {
	t.Helper()
	c, err := Bags(bags)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// rebuildPermuted re-inserts a bag's tuples in a random order. The bag
// abstraction already stores a multiset, so this exercises the claim that
// construction order cannot leak into the fingerprint.
func rebuildPermuted(t testing.TB, rng *rand.Rand, b *bag.Bag) *bag.Bag {
	t.Helper()
	tuples := b.Tuples()
	rng.Shuffle(len(tuples), func(i, j int) { tuples[i], tuples[j] = tuples[j], tuples[i] })
	out := bag.New(b.Schema())
	for _, tup := range tuples {
		if err := out.AddTuple(tup, b.CountTuple(tup)); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// renameValues applies a fresh per-attribute bijection v -> prefix+v+suffix
// noise to every bag, consistently across bags sharing an attribute.
func renameValues(t testing.TB, rng *rand.Rand, bags []*bag.Bag) []*bag.Bag {
	t.Helper()
	rename := make(map[string]map[string]string) // attr -> old -> new
	fresh := func(attr, v string) string {
		if rename[attr] == nil {
			rename[attr] = make(map[string]string)
		}
		if n, ok := rename[attr][v]; ok {
			return n
		}
		n := "v" + strconv.Itoa(rng.Intn(1<<30)) + "_" + strconv.Itoa(len(rename[attr]))
		rename[attr][v] = n
		return n
	}
	out := make([]*bag.Bag, len(bags))
	for i, b := range bags {
		attrs := b.Schema().Attrs()
		nb := bag.New(b.Schema())
		err := b.Each(func(tup bag.Tuple, count int64) error {
			vals := tup.Values()
			for j := range vals {
				vals[j] = fresh(attrs[j], vals[j])
			}
			return nb.Add(vals, count)
		})
		if err != nil {
			t.Fatal(err)
		}
		out[i] = nb
	}
	return out
}

func TestFingerprintDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	r, s := mustPair(t, rng, 32)
	a := fingerprint(t, r, s)
	b := fingerprint(t, r, s)
	if a.FP != b.FP {
		t.Fatalf("same instance fingerprinted differently: %s vs %s", a.FP, b.FP)
	}
	if a.FP.IsZero() {
		t.Fatal("fingerprint is zero")
	}
}

func TestFingerprintTupleOrderInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	r, s := mustPair(t, rng, 64)
	base := fingerprint(t, r, s)
	for trial := 0; trial < 5; trial++ {
		got := fingerprint(t, rebuildPermuted(t, rng, r), rebuildPermuted(t, rng, s))
		if got.FP != base.FP {
			t.Fatalf("tuple permutation changed the fingerprint (trial %d)", trial)
		}
	}
}

func TestFingerprintRenamingInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		r, s := mustPair(t, rng, 24)
		base := fingerprint(t, r, s)
		renamed := renameValues(t, rng, []*bag.Bag{r, s})
		got := fingerprint(t, renamed[0], renamed[1])
		if got.FP != base.FP {
			t.Fatalf("consistent renaming changed the fingerprint (trial %d)", trial)
		}
	}
}

func TestFingerprintMultiplicitySensitive(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	r, s := mustPair(t, rng, 16)
	base := fingerprint(t, r, s)
	bumped := r.Clone()
	tup := bumped.Tuples()[rng.Intn(bumped.Len())]
	if err := bumped.AddTuple(tup, 1); err != nil {
		t.Fatal(err)
	}
	if got := fingerprint(t, bumped, s); got.FP == base.FP {
		t.Fatal("multiplicity bump did not change the fingerprint")
	}
}

func TestFingerprintBagOrderSensitive(t *testing.T) {
	// Collections are indexed by hyperedge position, so (R, S) and (S, R)
	// are different instances.
	rng := rand.New(rand.NewSource(5))
	r, s := mustPair(t, rng, 16)
	if fingerprint(t, r, s).FP == fingerprint(t, s, r).FP {
		t.Fatal("swapping bag order did not change the fingerprint")
	}
}

func TestFingerprintAttributeSensitive(t *testing.T) {
	ab := bag.MustSchema("A", "B")
	cd := bag.MustSchema("C", "D")
	r := bag.New(ab)
	s := bag.New(cd)
	for _, row := range [][]string{{"x", "y"}, {"y", "x"}} {
		if err := r.Add(row, 2); err != nil {
			t.Fatal(err)
		}
		if err := s.Add(row, 2); err != nil {
			t.Fatal(err)
		}
	}
	if fingerprint(t, r).FP == fingerprint(t, s).FP {
		t.Fatal("attribute names must be part of the fingerprint")
	}
}

func TestFingerprintCollection(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	c, _, err := gen.RandomConsistent(rng, hypergraph.Star(6), 32, 1<<10, 4)
	if err != nil {
		t.Fatal(err)
	}
	base := fingerprint(t, c.Bags()...)
	renamed := renameValues(t, rng, c.Bags())
	if got := fingerprint(t, renamed...); got.FP != base.FP {
		t.Fatal("renaming a collection changed the fingerprint")
	}
}

// indices maps a tuple's values for attrs to canonical indices by string.
func indices(t *testing.T, can *Canonical, attrs, vals []string) []int {
	t.Helper()
	index := can.index()
	out := make([]int, len(vals))
	for i, a := range attrs {
		x, ok := index[a][vals[i]]
		if !ok {
			t.Fatalf("value %q not in the instance's %q column", vals[i], a)
		}
		out[i] = x
	}
	return out
}

// translate resolves canonical indices to values through the id tables,
// the way a cache hit rebuilds a witness over a new instance.
func translate(t *testing.T, can *Canonical, attrs []string, idx []int) []string {
	t.Helper()
	vals := make([]string, len(idx))
	for i, a := range attrs {
		d, ids := can.IDs(a)
		if idx[i] < 0 || idx[i] >= len(ids) || ids[idx[i]] == table.MissingID {
			t.Fatalf("index %d of %q has no id (%d ids)", idx[i], a, len(ids))
		}
		vals[i] = d.Value(ids[idx[i]])
	}
	return vals
}

func TestTranslateRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	r, s := mustPair(t, rng, 24)
	can := fingerprint(t, r, s)
	attrs := r.Schema().Attrs()
	err := r.Each(func(tup bag.Tuple, _ int64) error {
		vals := translate(t, can, attrs, indices(t, can, attrs, tup.Values()))
		for i := range vals {
			if vals[i] != tup.Values()[i] {
				t.Fatalf("round trip changed %v to %v", tup.Values(), vals)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestTranslateAcrossIsomorphicInstances is the cache-witness scenario:
// encode a tuple of instance 1 into canonical indices, decode through
// the canonicalization of a renamed copy, and land on the renamed values.
func TestTranslateAcrossIsomorphicInstances(t *testing.T) {
	ab := bag.MustSchema("A", "B")
	bc := bag.MustSchema("B", "C")
	r := bag.New(ab)
	s := bag.New(bc)
	// Distinct multiplicities make every value's refinement color unique,
	// so the canonical interning is fully determined.
	for i, row := range [][]string{{"a1", "b1"}, {"a2", "b2"}} {
		if err := r.Add(row, int64(1+i)); err != nil {
			t.Fatal(err)
		}
	}
	for i, row := range [][]string{{"b1", "c1"}, {"b2", "c2"}} {
		if err := s.Add(row, int64(1+i)); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(8))
	renamed := renameValues(t, rng, []*bag.Bag{r, s})
	can1 := fingerprint(t, r, s)
	can2 := fingerprint(t, renamed[0], renamed[1])
	if can1.FP != can2.FP {
		t.Fatal("isomorphic instances fingerprinted differently")
	}
	attrs := ab.Attrs()
	err := r.Each(func(tup bag.Tuple, count int64) error {
		vals := translate(t, can2, attrs, indices(t, can1, attrs, tup.Values()))
		if got := renamed[0].Count(vals); got != count {
			t.Fatalf("translated tuple %v has count %d, want %d", vals, got, count)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBagsRejectsEmptyAndNil(t *testing.T) {
	if _, err := Bags(nil); err == nil {
		t.Fatal("expected error for empty instance")
	}
	if _, err := Bags([]*bag.Bag{nil}); err == nil {
		t.Fatal("expected error for nil bag")
	}
}

func TestFingerprintEmptyBags(t *testing.T) {
	ab := bag.MustSchema("A", "B")
	bc := bag.MustSchema("B", "C")
	empty1 := fingerprint(t, bag.New(ab), bag.New(bc))
	empty2 := fingerprint(t, bag.New(ab), bag.New(bc))
	if empty1.FP != empty2.FP {
		t.Fatal("empty instances fingerprinted differently")
	}
	nonEmpty := bag.New(ab)
	if err := nonEmpty.Add([]string{"x", "y"}, 1); err != nil {
		t.Fatal(err)
	}
	if fingerprint(t, nonEmpty, bag.New(bc)).FP == empty1.FP {
		t.Fatal("empty and non-empty instances collided")
	}
}
