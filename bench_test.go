// Benchmarks regenerating every experiment of the reproduction (E1–E9 of
// DESIGN.md) plus the ablations it calls out. Run with:
//
//	go test -bench=. -benchmem .
package bagconsistency

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"testing"

	"bagconsistency/internal/bag"
	"bagconsistency/internal/canon"
	"bagconsistency/internal/core"
	"bagconsistency/internal/gen"
	"bagconsistency/internal/hypergraph"
	"bagconsistency/internal/ilp"
	"bagconsistency/internal/reductions"
	"bagconsistency/internal/relational"
	"bagconsistency/pkg/bagconsist"
)

// --- E1: Lemma 2 / Corollary 1 — two-bag consistency and witnesses ---

func BenchmarkE1PairConsistency(b *testing.B) {
	for _, n := range []int{64, 256, 1024, 4096} {
		b.Run(fmt.Sprintf("support=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			r, s, err := gen.RandomConsistentPair(rng, n, 1<<20, n/8+2)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ok, err := core.PairConsistent(r, s)
				if err != nil || !ok {
					b.Fatal("inconsistent", err)
				}
			}
		})
	}
}

func BenchmarkE1PairWitness(b *testing.B) {
	for _, n := range []int{64, 256, 1024} {
		b.Run(fmt.Sprintf("support=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(2))
			r, s, err := gen.RandomConsistentPair(rng, n, 1<<20, n/8+2)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, ok, err := core.PairWitness(r, s)
				if err != nil || !ok {
					b.Fatal("witness failed", err)
				}
			}
		})
	}
}

// --- E2: Section 3 — counting the 2^{n-1} witnesses ---

func BenchmarkE2WitnessCount(b *testing.B) {
	for _, n := range []int{4, 6, 8, 10} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			r, s, err := gen.Section3Family(n)
			if err != nil {
				b.Fatal(err)
			}
			want := int64(1) << uint(n-1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				got, err := core.CountPairWitnesses(r, s, ilp.Options{})
				if err != nil || got != want {
					b.Fatalf("count=%d want=%d err=%v", got, want, err)
				}
			}
		})
	}
}

// --- E3: Theorem 2 — Tseitin counterexamples on cyclic schemas ---

func BenchmarkE3Tseitin(b *testing.B) {
	cases := map[string]*hypergraph.Hypergraph{
		"C4": hypergraph.Cycle(4),
		"C6": hypergraph.Cycle(6),
		"H4": hypergraph.AllButOne(4),
		"H5": hypergraph.AllButOne(5),
	}
	for name, h := range cases {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				c, err := core.TseitinCollection(h)
				if err != nil {
					b.Fatal(err)
				}
				pw, err := c.PairwiseConsistent()
				if err != nil || !pw {
					b.Fatal("not pairwise consistent", err)
				}
			}
		})
	}
}

func BenchmarkE3CyclicCounterexampleLift(b *testing.B) {
	// Full Lemma 3 + Lemma 4 pipeline on an embedded cycle.
	h := hypergraph.Must(
		[]string{"A", "B"}, []string{"B", "C"}, []string{"C", "D"}, []string{"D", "A"},
		[]string{"A", "E"}, []string{"B"},
	)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.CyclicCounterexample(h); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E4: Theorem 3 — minimal witness size bounds ---

func BenchmarkE4MinimalWitnessBounds(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	c, g, err := gen.RandomConsistent(rng, hypergraph.Triangle(), 5, 1<<10, 2)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		min, err := c.MinimizeWitnessSupport(g, ilp.Options{})
		if err != nil {
			b.Fatal(err)
		}
		var bound float64
		for _, bg := range c.Bags() {
			bound += bg.BinarySize()
		}
		if float64(min.SupportSize()) > bound {
			b.Fatal("Theorem 3(3) bound violated")
		}
	}
}

// --- E5: Example 1 — exponential vs minimal witnesses ---

func BenchmarkE5ExponentialJoinWitness(b *testing.B) {
	for _, n := range []int{8, 10, 12} {
		b.Run(fmt.Sprintf("uniform/n=%d", n), func(b *testing.B) {
			c, err := gen.Example1Chain(n)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				j, err := gen.Example1UniformWitness(n)
				if err != nil {
					b.Fatal(err)
				}
				ok, err := c.VerifyWitness(j)
				if err != nil || !ok {
					b.Fatal("uniform witness invalid", err)
				}
			}
		})
		b.Run(fmt.Sprintf("minimal/n=%d", n), func(b *testing.B) {
			c, err := gen.Example1Chain(n)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dec, err := c.GloballyConsistent(core.GlobalOptions{})
				if err != nil || !dec.Consistent {
					b.Fatal("chain must be consistent", err)
				}
			}
		})
	}
}

// --- E6: Theorem 4 — the dichotomy ---

func BenchmarkE6DichotomyAcyclic(b *testing.B) {
	for _, m := range []int{4, 8, 16} {
		b.Run(fmt.Sprintf("path/m=%d", m), func(b *testing.B) {
			rng := rand.New(rand.NewSource(6))
			c, _, err := gen.RandomConsistent(rng, hypergraph.Path(m+1), 64, 1<<16, 4)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dec, err := c.GloballyConsistent(core.GlobalOptions{})
				if err != nil || !dec.Consistent {
					b.Fatal("must be consistent", err)
				}
			}
		})
	}
}

func BenchmarkE6DichotomyCyclic(b *testing.B) {
	for _, n := range []int{2, 3, 4, 5} {
		b.Run(fmt.Sprintf("triangle3DCT/n=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(6))
			inst, err := gen.RandomThreeDCT(rng, n, 3)
			if err != nil {
				b.Fatal(err)
			}
			c, err := inst.ToCollection()
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dec, err := c.GloballyConsistent(core.GlobalOptions{MaxNodes: 50_000_000})
				if err != nil || !dec.Consistent {
					b.Fatal("interior instance must be consistent", err)
				}
			}
		})
	}
}

func BenchmarkE6DichotomyCyclicBoundary(b *testing.B) {
	// Rectangle-swapped margins: the exact search must work hard. The seed
	// is fixed so the instances are identical across runs.
	for _, n := range []int{3, 4, 5} {
		b.Run(fmt.Sprintf("boundary/n=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(7))
			inst, err := gen.RandomThreeDCT(rng, n, 3)
			if err != nil {
				b.Fatal(err)
			}
			pert, err := gen.PerturbTriangleMargins(rng, inst, 2)
			if err != nil {
				b.Fatal(err)
			}
			c, err := pert.ToCollection()
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := c.GloballyConsistent(core.GlobalOptions{MaxNodes: 50_000_000}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- E7: Theorems 5/6 — witness construction ---

func BenchmarkE7MinimalPairWitness(b *testing.B) {
	for _, n := range []int{64, 256} {
		b.Run(fmt.Sprintf("support=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(7))
			r, s, err := gen.RandomConsistentPair(rng, n, 1<<12, 6)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w, ok, err := core.MinimalPairWitness(r, s)
				if err != nil || !ok {
					b.Fatal("witness failed", err)
				}
				if w.SupportSize() > r.SupportSize()+s.SupportSize() {
					b.Fatal("Theorem 5 bound violated")
				}
			}
		})
	}
}

func BenchmarkE7AcyclicWitness(b *testing.B) {
	for _, m := range []int{8, 16, 32} {
		b.Run(fmt.Sprintf("star/m=%d", m), func(b *testing.B) {
			rng := rand.New(rand.NewSource(7))
			c, _, err := gen.RandomConsistent(rng, hypergraph.Star(m), 48, 1<<10, 4)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w, ok, err := c.WitnessAcyclic(core.GlobalOptions{})
				if err != nil || !ok {
					b.Fatal("witness failed", err)
				}
				_ = w
			}
		})
	}
}

// --- E8: Lemmas 6/7 — the NP-hardness lifts ---

func BenchmarkE8CycleLift(b *testing.B) {
	c, err := core.TseitinCollection(hypergraph.Triangle())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cur := c
		for n := 4; n <= 6; n++ {
			next, err := reductions.LiftCycleInstance(cur)
			if err != nil {
				b.Fatal(err)
			}
			cur = next
		}
	}
}

func BenchmarkE8HnLift(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	c, _, err := gen.RandomConsistent(rng, hypergraph.AllButOne(3), 3, 2, 2)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := reductions.LiftAllButOneInstance(c); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E9: the set-semantics baseline ---

func BenchmarkE9RelationsFixedSchema(b *testing.B) {
	for _, n := range []int{16, 32, 64} {
		b.Run(fmt.Sprintf("triangle/|Ri|=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(9))
			h := hypergraph.Triangle()
			g, err := gen.RandomGlobalBag(rng, h, n, 1, n)
			if err != nil {
				b.Fatal(err)
			}
			var rels []*relational.Relation
			for i := 0; i < h.NumEdges(); i++ {
				s, err := bag.NewSchema(h.Edge(i)...)
				if err != nil {
					b.Fatal(err)
				}
				m, err := g.Marginal(s)
				if err != nil {
					b.Fatal(err)
				}
				rels = append(rels, relational.FromBagSupport(m))
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ok, _, err := relational.GloballyConsistent(rels)
				if err != nil || !ok {
					b.Fatal("must be consistent", err)
				}
			}
		})
	}
}

func BenchmarkE9ThreeColoring(b *testing.B) {
	for _, n := range []int{6, 8} {
		b.Run(fmt.Sprintf("graph/n=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(9))
			edges := gen.RandomGraph(rng, n, 0.4)
			if len(edges) == 0 {
				edges = [][2]int{{0, 1}}
			}
			_, rels, err := reductions.ThreeColoringInstance(n, edges)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := relational.GloballyConsistent(rels); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Ablations called out in DESIGN.md ---

// BenchmarkAblationWitnessMinimization measures the cost/benefit of
// minimal pairwise witnesses inside the Theorem 6 composition.
func BenchmarkAblationWitnessMinimization(b *testing.B) {
	rng := rand.New(rand.NewSource(11))
	c, _, err := gen.RandomConsistent(rng, hypergraph.Star(12), 48, 1<<10, 4)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("minimal", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, ok, err := c.WitnessAcyclic(core.GlobalOptions{}); err != nil || !ok {
				b.Fatal(err)
			}
		}
	})
	b.Run("raw-flow", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, ok, err := c.WitnessAcyclic(core.GlobalOptions{SkipWitnessMinimization: true}); err != nil || !ok {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationLPPruning measures the exact-LP relaxation bound inside
// the integer search on both ends of its trade-off. On a light feasible
// triangle (n=3) plain search wins by two orders of magnitude; on the
// heavy tail — an infeasible 3DCT instance (n=4) whose plain search
// exhausts ~43k nodes — the root relaxation refutes it in one node.
func BenchmarkAblationLPPruning(b *testing.B) {
	rng := rand.New(rand.NewSource(12))
	inst, err := gen.RandomThreeDCT(rng, 3, 3)
	if err != nil {
		b.Fatal(err)
	}
	light, err := inst.ToCollection()
	if err != nil {
		b.Fatal(err)
	}
	inst, err = gen.InfeasibleThreeDCT(rand.New(rand.NewSource(1315)), 4, 2, 50, 3_000_000)
	if err != nil {
		b.Fatal(err)
	}
	heavy, err := inst.ToCollection()
	if err != nil {
		b.Fatal(err)
	}
	for _, arm := range []struct {
		name string
		c    *core.Collection
		lp   bool
	}{
		{"plain", light, false},
		{"lp-pruned", light, true},
		{"plain-infeasible-n4", heavy, false},
		{"lp-pruned-infeasible-n4", heavy, true},
	} {
		b.Run(arm.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := arm.c.GloballyConsistent(core.GlobalOptions{MaxNodes: 50_000_000, LPPruning: arm.lp}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Extension benchmarks (Section 6 directions) ---

func BenchmarkExtRelaxedGlobalConsistency(b *testing.B) {
	rng := rand.New(rand.NewSource(13))
	c, _, err := gen.RandomConsistent(rng, hypergraph.Triangle(), 4, 6, 2)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ok, err := c.RelaxedGloballyConsistent()
		if err != nil || !ok {
			b.Fatal("must be relaxed-consistent", err)
		}
	}
}

func BenchmarkExtFullReducer(b *testing.B) {
	rng := rand.New(rand.NewSource(14))
	h := hypergraph.Path(8)
	g, err := gen.RandomGlobalBag(rng, h, 64, 1, 6)
	if err != nil {
		b.Fatal(err)
	}
	var rels []*relational.Relation
	for i := 0; i < h.NumEdges(); i++ {
		s, err := bag.NewSchema(h.Edge(i)...)
		if err != nil {
			b.Fatal(err)
		}
		m, err := g.Marginal(s)
		if err != nil {
			b.Fatal(err)
		}
		rels = append(rels, relational.FromBagSupport(m))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := relational.FullReduce(h, rels); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExtMinCostWitness(b *testing.B) {
	r, s, err := gen.Section3Family(5)
	if err != nil {
		b.Fatal(err)
	}
	cost := func(t bag.Tuple) int64 {
		if v, _ := t.Value("C"); v == "1" {
			return 3
		}
		return 1
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, ok, err := core.MinCostPairWitness(r, s, cost)
		if err != nil || !ok {
			b.Fatal("min-cost witness failed", err)
		}
	}
}

// BenchmarkE8ChainDecision decides lifted Tseitin instances along the
// Lemma 6 chain — NP membership with the schema as part of the input
// (Corollary 3): the instances stay decidable as the cycle grows because
// the lifted structure is thin.
func BenchmarkE8ChainDecision(b *testing.B) {
	seed, err := core.TseitinCollection(hypergraph.Triangle())
	if err != nil {
		b.Fatal(err)
	}
	chains := map[int]*core.Collection{}
	cur := seed
	for n := 4; n <= 8; n++ {
		next, err := reductions.LiftCycleInstance(cur)
		if err != nil {
			b.Fatal(err)
		}
		chains[n] = next
		cur = next
	}
	for _, n := range []int{4, 6, 8} {
		b.Run(fmt.Sprintf("C%d", n), func(b *testing.B) {
			c := chains[n]
			for i := 0; i < b.N; i++ {
				dec, err := c.GloballyConsistent(core.GlobalOptions{MaxNodes: 10_000_000})
				if err != nil || dec.Consistent {
					b.Fatal("lifted Tseitin must stay inconsistent", err)
				}
			}
		})
	}
}

// --- Public API (pkg/bagconsist): the surface users actually call ---
//
// These benchmarks measure the same workloads as E1/E6 through the
// Checker facade, so BENCH_*.json trajectories track facade overhead
// (report construction, witness serialization) and the batch layer's
// scaling, not just the internal algorithms.

func BenchmarkAPICheckPair(b *testing.B) {
	ctx := context.Background()
	checker := bagconsist.New()
	for _, n := range []int{64, 1024} {
		b.Run(fmt.Sprintf("support=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			r, s, err := gen.RandomConsistentPair(rng, n, 1<<20, n/8+2)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rep, err := checker.CheckPair(ctx, r, s)
				if err != nil || !rep.Consistent {
					b.Fatal("inconsistent", err)
				}
			}
		})
	}
}

func BenchmarkAPICheckGlobalAcyclic(b *testing.B) {
	ctx := context.Background()
	checker := bagconsist.New()
	for _, m := range []int{4, 16} {
		b.Run(fmt.Sprintf("path/m=%d", m), func(b *testing.B) {
			rng := rand.New(rand.NewSource(6))
			c, _, err := gen.RandomConsistent(rng, hypergraph.Path(m+1), 64, 1<<16, 4)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rep, err := checker.CheckGlobal(ctx, c)
				if err != nil || !rep.Consistent {
					b.Fatal("must be consistent", err)
				}
			}
		})
	}
}

func BenchmarkAPICheckGlobalCyclic(b *testing.B) {
	ctx := context.Background()
	checker := bagconsist.New(bagconsist.WithMaxNodes(50_000_000))
	for _, n := range []int{3, 4} {
		b.Run(fmt.Sprintf("triangle3DCT/n=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(6))
			inst, err := gen.RandomThreeDCT(rng, n, 3)
			if err != nil {
				b.Fatal(err)
			}
			c, err := inst.ToCollection()
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rep, err := checker.CheckGlobal(ctx, c)
				if err != nil || !rep.Consistent {
					b.Fatal("interior instance must be consistent", err)
				}
			}
		})
	}
}

func BenchmarkAPICheckBatch(b *testing.B) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(20))
	const batchSize = 32
	instances := make([]*bagconsist.Collection, batchSize)
	for i := range instances {
		c, _, err := gen.RandomConsistent(rng, hypergraph.Star(8), 32, 1<<10, 4)
		if err != nil {
			b.Fatal(err)
		}
		instances[i] = c
	}
	for _, workers := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			checker := bagconsist.New(bagconsist.WithParallelism(workers))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				reports, err := checker.CheckBatch(ctx, instances)
				if err != nil {
					b.Fatal(err)
				}
				for _, rep := range reports {
					if rep.Error != "" || !rep.Consistent {
						b.Fatal("batch item failed:", rep.Error)
					}
				}
			}
		})
	}
}

// BenchmarkAPICheckGlobalCached measures the cache-hit path: the warm
// number is the full canonical-fingerprint lookup plus witness
// translation, the floor a repeat query costs regardless of how hard the
// instance is. Compare against BenchmarkAPICheckGlobalAcyclic/Cyclic for
// the uncached cost of the same workloads (cmd/bench sweeps the
// cross-product and records it in BENCH_pr2.json).
func BenchmarkAPICheckGlobalCached(b *testing.B) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(6))
	c, _, err := gen.RandomConsistent(rng, hypergraph.Star(8), 48, 1<<10, 4)
	if err != nil {
		b.Fatal(err)
	}
	checker := bagconsist.New(bagconsist.WithCache(64))
	if _, err := checker.CheckGlobal(ctx, c); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := checker.CheckGlobal(ctx, c)
		if err != nil || !rep.CacheHit {
			b.Fatal("expected a cache hit", err)
		}
	}
}

// BenchmarkAPICheckBatchCached is BenchmarkAPICheckBatch with a shared
// cache and a duplicate-heavy batch: the serving configuration the cache
// subsystem exists for.
func BenchmarkAPICheckBatchCached(b *testing.B) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(20))
	const batchSize = 32
	c, _, err := gen.RandomConsistent(rng, hypergraph.Star(8), 32, 1<<10, 4)
	if err != nil {
		b.Fatal(err)
	}
	instances := make([]*bagconsist.Collection, batchSize)
	for i := range instances {
		instances[i] = c
	}
	checker := bagconsist.New(bagconsist.WithParallelism(8), bagconsist.WithCache(64))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reports, err := checker.CheckBatch(ctx, instances)
		if err != nil {
			b.Fatal(err)
		}
		for _, rep := range reports {
			if rep.Error != "" || !rep.Consistent {
				b.Fatal("batch item failed:", rep.Error)
			}
		}
	}
}

// BenchmarkCanonFingerprint isolates the canonicalization cost — the
// per-query overhead a cache-enabled Checker pays win or lose.
func BenchmarkCanonFingerprint(b *testing.B) {
	rng := rand.New(rand.NewSource(21))
	for _, m := range []int{2, 8} {
		c, _, err := gen.RandomConsistent(rng, hypergraph.Star(m), 48, 1<<10, 4)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("star/m=%d", m), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := canon.Bags(c.Bags()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkAPIReportJSON(b *testing.B) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(21))
	c, _, err := gen.RandomConsistent(rng, hypergraph.Star(8), 48, 1<<10, 4)
	if err != nil {
		b.Fatal(err)
	}
	rep, err := bagconsist.New().CheckGlobal(ctx, c)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := json.Marshal(rep); err != nil {
			b.Fatal(err)
		}
	}
}
