package canon

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"strconv"
	"testing"

	"bagconsistency/internal/bag"
	"bagconsistency/internal/bagio"
	"bagconsistency/internal/core"
	"bagconsistency/internal/gen"
	"bagconsistency/internal/hypergraph"
)

// fingerprintPin is the SHA-256 of the fingerprints and rank tables of
// pinnedInstances, as the fingerprinting of the commit before the
// fixed-prefix, interleaved-chain and counting-sort passes computed
// them. Fingerprints key the persistent store, so every later
// implementation must reproduce them bit for bit.
const fingerprintPin = "5b970fb5e5ccd1f9db130059119b93db7cfc909094aebab8c2b95624c181ff48"

// pinnedInstances are the shapes the served traffic fingerprints: pairs
// at three supports, paths and stars, 3DCT triangles and near-acyclic
// collections, a bumped copy of every fourth one, and each of those both
// as generated (every bag on its own dictionaries) and re-decoded from
// the JSON wire (one dictionary per attribute, shared by the bags).
func pinnedInstances(t testing.TB) [][]*bag.Bag {
	t.Helper()
	rng := rand.New(rand.NewSource(31))
	var colls []*core.Collection
	pairSchema := hypergraph.Must([]string{"A", "B"}, []string{"B", "C"})
	for _, p := range []struct{ support, n int }{{64, 150}, {256, 75}, {1024, 20}} {
		for x := 0; x < p.n; x++ {
			r, s, err := gen.RandomConsistentPair(rng, p.support, 1<<20, p.support/8+2)
			if err != nil {
				t.Fatal(err)
			}
			c, err := core.NewCollection(pairSchema, []*bag.Bag{r, s})
			if err != nil {
				t.Fatal(err)
			}
			colls = append(colls, c)
		}
	}
	for _, h := range []*hypergraph.Hypergraph{hypergraph.Path(8), hypergraph.Star(6)} {
		for x := 0; x < 60; x++ {
			c, _, err := gen.RandomConsistent(rng, h, 128, 1<<10, 10)
			if err != nil {
				t.Fatal(err)
			}
			colls = append(colls, c)
		}
	}
	for x := 0; x < 150; x++ {
		inst, err := gen.RandomThreeDCT(rng, 5, 2)
		if err != nil {
			t.Fatal(err)
		}
		c, err := inst.ToCollection()
		if err != nil {
			t.Fatal(err)
		}
		colls = append(colls, c)
	}
	near, err := gen.NearAcyclicHypergraph(6, 2)
	if err != nil {
		t.Fatal(err)
	}
	for x := 0; x < 80; x++ {
		c, _, err := gen.RandomConsistent(rng, near, 32, 3, 32)
		if err != nil {
			t.Fatal(err)
		}
		colls = append(colls, c)
	}
	for x, n := 0, len(colls); x < n; x += 4 {
		c, err := gen.Perturb(rng, colls[x])
		if err != nil {
			t.Fatal(err)
		}
		colls = append(colls, c)
	}
	out := make([][]*bag.Bag, 0, 2*len(colls))
	for _, c := range colls {
		out = append(out, c.Bags(), redecoded(t, c.Bags()))
	}
	return out
}

// redecoded sends bags through the JSON wire and back, onto one shared
// dictionary per attribute, as the daemon decodes a request.
func redecoded(t testing.TB, bags []*bag.Bag) []*bag.Bag {
	t.Helper()
	named := make([]bagio.NamedBag, len(bags))
	for i, b := range bags {
		named[i] = bagio.NamedBag{Name: "r" + strconv.Itoa(i), Bag: b}
	}
	var buf bytes.Buffer
	if err := bagio.EncodeJSON(&buf, named); err != nil {
		t.Fatal(err)
	}
	back, err := bagio.DecodeJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]*bag.Bag, len(back))
	for i, nb := range back {
		out[i] = nb.Bag
	}
	return out
}

// TestFingerprintPin holds Bags to fingerprintPin: every fingerprint, and
// every attribute's canonical values and dictionary ids in rank order.
func TestFingerprintPin(t *testing.T) {
	h := sha256.New()
	for _, bags := range pinnedInstances(t) {
		can, err := Bags(bags)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintln(h, can.FP)
		for _, col := range can.cols {
			fmt.Fprintf(h, "%q %q %v\n", col.attr, col.vals, col.ids)
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != fingerprintPin {
		t.Fatalf("fingerprints and rank tables hash to %s, want %s", got, fingerprintPin)
	}
}
