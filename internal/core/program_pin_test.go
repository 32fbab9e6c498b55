package core_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math/rand"
	"testing"

	"bagconsistency/internal/core"
	"bagconsistency/internal/gen"
	"bagconsistency/internal/ilp"
)

// programPin is the SHA-256 of every program and column tuple of
// pinnedCollections, as the string-ordered builder (the oracle) built
// them. The id-space builder must reproduce it byte for byte: the same
// programs make the integer search walk the same trees, and the same
// tuples make the same witnesses.
const programPin = "28208760d9083d66b8e6c8142fae8b0f94901b85e799752836c619c72f0ce6d6"

// pinnedCollections are the engine-corpus-shaped collections of the ilp
// differential suite (seed 17) and the first 500 master instances of
// each cyclic-fresh family, generated as the benchmark seeds them:
// master m of a family comes from the seed salt*1_000_003+m. Every
// cyclic collection with an acyclic fringe is followed by its GYO core,
// the sub-collection the hybrid search builds a program for.
func pinnedCollections(t testing.TB) []*core.Collection {
	t.Helper()
	var out []*core.Collection
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 6; trial++ {
		inst, err := gen.RandomThreeDCT(rng, 2+rng.Intn(2), 4)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, mustTriangle(t, inst))
	}
	for trial := 0; trial < 3; trial++ {
		inst, err := gen.InfeasibleThreeDCT(rng, 2, 3, 200, 200_000)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, mustTriangle(t, inst))
	}
	for k := 0; k <= 3; k++ {
		h, err := gen.NearAcyclicHypergraph(5, k)
		if err != nil {
			t.Fatal(err)
		}
		c, _, err := gen.RandomConsistent(rng, h, 4, 3, 2)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, withCore(t, c)...)
	}
	for m := 0; m < 500; m++ {
		inst, err := gen.RandomThreeDCT(rand.New(rand.NewSource(1*1_000_003+int64(m))), 5, 2)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, mustTriangle(t, inst))
	}
	h, err := gen.NearAcyclicHypergraph(6, 2)
	if err != nil {
		t.Fatal(err)
	}
	for m := 0; m < 500; m++ {
		c, _, err := gen.RandomConsistent(rand.New(rand.NewSource(2*1_000_003+int64(m))), h, 32, 3, 32)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, withCore(t, c)...)
	}
	return out
}

// writeProgram feeds p and the tuple of each of its columns to h.
func writeProgram(h hash.Hash, p *ilp.Problem, tuple func(col int) []string) {
	fmt.Fprintln(h, p.M, p.B, p.Cols)
	for col := range p.Cols {
		fmt.Fprintf(h, "%q\n", tuple(col))
	}
}

// TestBuildProgramPin holds BuildProgram to programPin.
func TestBuildProgramPin(t *testing.T) {
	h := sha256.New()
	for _, c := range pinnedCollections(t) {
		p, j, err := c.BuildProgram()
		if err != nil {
			t.Fatal(err)
		}
		writeProgram(h, p, func(col int) []string { return joinValues(j, col) })
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != programPin {
		t.Fatalf("programs and tuples hash to %s, want %s", got, programPin)
	}
}
