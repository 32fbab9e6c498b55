package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"testing"
)

// TestInputsDeterministic pins the seed contract: the same seed yields
// byte-identical request bodies in the same order, and another seed
// yields different timed bodies (the fresh workloads' warm-up is the
// same for every seed).
func TestInputsDeterministic(t *testing.T) {
	for _, wl := range workloads {
		t.Run(wl.name, func(t *testing.T) {
			a, err := wl.build(5, 1)
			if err != nil {
				t.Fatal(err)
			}
			b, err := wl.build(5, 1)
			if err != nil {
				t.Fatal(err)
			}
			if len(a.timed) == 0 || len(a.warm) == 0 {
				t.Fatalf("empty inputs: %d warm, %d timed", len(a.warm), len(a.timed))
			}
			if !sameRequests(a, b, a.warm, b.warm) || !sameRequests(a, b, a.timed, b.timed) {
				t.Fatal("same seed, different request bodies")
			}
			c, err := wl.build(6, 1)
			if err != nil {
				t.Fatal(err)
			}
			if sameRequests(a, c, a.timed, c.timed) {
				t.Fatal("different seeds, identical request bodies")
			}
			if wl.dataDir && !sameRequests(a, c, a.warm, c.warm) {
				t.Fatal("a fresh workload's warm-up differs between seeds")
			}
		})
	}
}

// TestInputsPinned pins a digest of every workload's requests for one
// seed. Inputs are built from internal/gen, internal/load and the bagio
// encoders and never by running the engine, so a commit that changes the
// engine is sent exactly the bodies its parent was. A change to this
// digest changes what the benchmark measures: compare such a commit with
// its parent on the parent's inputs, not with this benchmark's figures.
func TestInputsPinned(t *testing.T) {
	want := map[string]string{
		"hot-repeat":    "77945a8ffcfa2ca340c69b68dfab8a9d8596f072ae54f0d46e934275324961ad",
		"acyclic-fresh": "6f097ff85d8042a76a543283e0a2bec938baee613e18f26bdd28d936878cd9e0",
		"cyclic-fresh":  "838dd33b184691867913b030379273d733dddc25080bec6621f69c4f5ec8f1ea",
	}
	for _, wl := range workloads {
		in, err := wl.build(5, 1)
		if err != nil {
			t.Fatal(err)
		}
		if got := inputsDigest(in); got != want[wl.name] {
			t.Errorf("%s: inputs digest %s, want %s", wl.name, got, want[wl.name])
		}
	}
}

// inputsDigest hashes the warm-up and timed sequences in send order: each
// request's endpoint, content type, truth and body.
func inputsDigest(in *inputs) string {
	h := sha256.New()
	for _, seq := range [][]request{in.warm, in.timed} {
		for _, r := range seq {
			it := in.items[r.item]
			fmt.Fprintf(h, "%s %s pair=%t consistent=%t %d\n", r.path, r.ctype, it.pair, it.consistent, len(in.bodies[r.body]))
			h.Write(in.bodies[r.body])
		}
		h.Write([]byte("--\n"))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestCyclicRejected checks the committed list of rejected cyclic-fresh
// master instances: one line per family, indices inside the pool, and
// few enough that the pools cover a 60 s run.
func TestCyclicRejected(t *testing.T) {
	rejected, err := parseRejected(cyclicRejectedText)
	if err != nil {
		t.Fatal(err)
	}
	if len(rejected) != len(cyclicFamilies) {
		t.Fatalf("%d families in the list, want %d", len(rejected), len(cyclicFamilies))
	}
	for fi, f := range cyclicFamilies {
		idx, ok := rejected[f.name]
		if !ok || len(idx) == 0 || idx[len(idx)-1] >= f.pool {
			t.Fatalf("%s: %d rejected, last beyond the pool of %d or missing", f.name, len(idx), f.pool)
		}
		share := []float64{0.7, 0.3}[fi]
		if need := share * cyclicPerSecond * 60; float64(f.pool-len(idx)) < need {
			t.Errorf("%s: %d accepted instances, a 60 s run may need %.0f", f.name, f.pool-len(idx), need)
		}
	}
	if _, err := parseRejected("triangle 3 0\n"); err == nil {
		t.Error("a repeated index parsed")
	}
}

// TestFreshShares checks the fixed shares of the fresh workloads: a
// quarter of acyclic-fresh and a fifth of cyclic-fresh must answer NO.
func TestFreshShares(t *testing.T) {
	for _, c := range []struct {
		build func(int64, int) (*inputs, error)
		want  float64
	}{{buildAcyclicFresh, 0.25}, {buildCyclicFresh, 0.2}} {
		in, err := c.build(5, 1)
		if err != nil {
			t.Fatal(err)
		}
		bad := 0
		for _, it := range in.items {
			if !it.consistent {
				bad++
			}
		}
		if got := float64(bad) / float64(len(in.items)); math.Abs(got-c.want) > 0.01 {
			t.Errorf("NO share %.3f, want %.2f", got, c.want)
		}
	}
}

func sameRequests(a, b *inputs, ra, rb []request) bool {
	if len(ra) != len(rb) {
		return false
	}
	for i := range ra {
		x, y := ra[i], rb[i]
		if x.path != y.path || x.ctype != y.ctype || !bytes.Equal(a.bodies[x.body], b.bodies[y.body]) ||
			a.items[x.item] != b.items[y.item] {
			return false
		}
	}
	return true
}

// TestQuartilesMatchPython checks quartiles against values from Python's
// statistics.quantiles(data, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
	// == [2.75, 5.5, 8.25]
	got := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if got != [3]float64{2.75, 5.5, 8.25} {
		t.Fatalf("quartiles = %v", got)
	}
}

// TestHotRepeatVariants checks that about half of hot-repeat's timed
// requests carry a body of their own (a permuted or renamed variant).
func TestHotRepeatVariants(t *testing.T) {
	in, err := buildHotRepeat(5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(in.items) != 2*hotCorpusItems {
		t.Fatalf("%d distinct items, want %d", len(in.items), 2*hotCorpusItems)
	}
	no := map[bool]int{}
	for _, it := range in.items {
		if !it.consistent {
			no[it.pair]++
		}
	}
	if no[false] != hotCorpusItems/4 || no[true] != hotCorpusItems/4 {
		t.Fatalf("%d global and %d pair items answer NO, want %d each", no[false], no[true], hotCorpusItems/4)
	}
	variants := 0
	for _, r := range in.timed {
		if int(r.body) >= len(in.items) {
			variants++
		}
	}
	if frac := float64(variants) / float64(len(in.timed)); frac < 0.45 || frac > 0.55 {
		t.Fatalf("variant share %.3f, want about 0.5", frac)
	}
}
