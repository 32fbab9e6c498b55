// Command experiments reproduces every result of the paper's evaluation
// (its theorems, lemmas, worked examples, and complexity claims) as
// computational experiments E1–E9, plus the implemented Section 6
// extensions as E10, printing a paper-claim vs. measured block for each.
// Every timed row measures a case of the internal/harness workload table,
// the one cmd/bench and go test -bench measure, and prints its facts from
// the instance it timed. DESIGN.md's Experiments section describes each.
//
// Usage:
//
//	experiments [-quick] [-only E6]
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"time"

	"bagconsistency/internal/bag"
	"bagconsistency/internal/buildinfo"
	"bagconsistency/internal/core"
	"bagconsistency/internal/gen"
	"bagconsistency/internal/harness"
	"bagconsistency/internal/hypergraph"
	"bagconsistency/internal/ilp"
	"bagconsistency/internal/reductions"
	"bagconsistency/internal/relational"
	"bagconsistency/pkg/bagconsist"
)

// ctx is the harness-wide context: experiments are driven end to end, so
// a single background context is threaded through every public-API call.
var ctx = context.Background()

// timedRow is a table case's instance, the report of its authoritative
// call and its measured time per operation.
type timedRow struct {
	harness.Instance
	rep  *bagconsist.Report
	took time.Duration
}

// timed sets up the named table case and times its operation through
// internal/harness, the loop cmd/bench records BENCH_*.json with, so the
// two tools' numbers agree. The row's facts come from one authoritative
// call first; it doubles as the warmup, so the harness's own is skipped
// (it would re-run multi-second exact searches).
func timed(name string, quick bool) (timedRow, error) {
	c, err := harness.Find(name)
	if err != nil {
		return timedRow{}, err
	}
	run, err := c.Setup()
	if err != nil {
		return timedRow{}, fmt.Errorf("%s: %w", name, err)
	}
	defer run.Close()
	row := timedRow{Instance: run.Instance}
	if row.rep, err = run.Op(); err != nil {
		return row, fmt.Errorf("%s: %w", name, err)
	}
	opts := harness.Options{}
	if quick {
		opts = harness.Quick
	}
	opts.SkipWarmup = true
	res, err := harness.Measure(func() error { _, err := run.Op(); return err }, opts)
	if err != nil {
		return row, fmt.Errorf("%s: %w", name, err)
	}
	row.took = res.Duration().Round(time.Microsecond)
	return row, nil
}

func main() {
	quick := flag.Bool("quick", false, "run smaller parameter sweeps")
	only := flag.String("only", "", "run a single experiment (E1..E10)")
	version := flag.Bool("version", false, "print version and exit")
	flag.Parse()
	if *version {
		fmt.Println("experiments", buildinfo.String())
		return
	}
	if err := run(os.Stdout, *quick, *only); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

type experiment struct {
	id    string
	title string
	fn    func(io.Writer, bool) error
}

func run(out io.Writer, quick bool, only string) error {
	all := []experiment{
		{"E1", "Lemma 2 / Corollary 1: two-bag consistency, four equivalent tests, strongly polynomial witness", e1},
		{"E2", "Section 3: the R_{n-1}/S_{n-1} family has exactly 2^{n-1} pairwise-incomparable witnesses", e2},
		{"E3", "Theorem 2: local-to-global consistency for bags holds iff the schema is acyclic", e3},
		{"E4", "Theorem 3 / Corollary 3: minimal witnesses obey the NP-membership size bounds", e4},
		{"E5", "Example 1: non-minimal witnesses can be exponentially larger than the input", e5},
		{"E6", "Theorem 4: dichotomy — GCPB polynomial on acyclic schemas, NP-complete on cyclic ones", e6},
		{"E7", "Theorems 5, 6 / Corollary 4: witness construction and support bounds", e7},
		{"E8", "Lemmas 6, 7: NP-hardness lifts preserve (in)consistency with witness round-trips", e8},
		{"E9", "Section 5.1 baseline: relations — NP-hard in general, polynomial per fixed schema", e9},
		{"E10", "Section 6 extensions: relaxed consistency, full reducers, min-cost witnesses", e10},
	}
	for _, e := range all {
		if only != "" && e.id != only {
			continue
		}
		fmt.Fprintf(out, "==== %s: %s ====\n", e.id, e.title)
		start := time.Now()
		if err := e.fn(out, quick); err != nil {
			return fmt.Errorf("%s: %w", e.id, err)
		}
		fmt.Fprintf(out, "[%s completed in %v]\n\n", e.id, time.Since(start).Round(time.Millisecond))
	}
	return nil
}

// e1 checks the Lemma 2 equivalences on random instances and measures the
// strongly polynomial pair test and witness construction across sizes.
func e1(out io.Writer, quick bool) error {
	rng := rand.New(rand.NewSource(1))
	fmt.Fprintln(out, "paper: R,S consistent ⇔ equal shared marginals ⇔ P(R,S) feasible (Q) ⇔ feasible (Z) ⇔ N(R,S) has a saturated flow;")
	fmt.Fprintln(out, "       consistency testable and witness constructible in strongly polynomial time.")
	// One vote per Lemma 2 characterization: CheckPair's marginal test,
	// then core's flow, LP and integer arms.
	checker := bagconsist.New()
	tests := []func(r, s *bag.Bag) (bool, error){
		func(r, s *bag.Bag) (bool, error) {
			rep, err := checker.CheckPair(ctx, r, s)
			return err == nil && rep.Consistent, err
		},
		core.PairConsistentViaFlow,
		core.PairConsistentViaLP,
		func(r, s *bag.Bag) (bool, error) { return core.PairConsistentViaILPContext(ctx, r, s, ilp.Options{}) },
	}
	agree := 0
	trials := 40
	if quick {
		trials = 10
	}
	for i := 0; i < trials; i++ {
		r, s, err := gen.RandomConsistentPair(rng, 8, 16, 3)
		if err != nil {
			return err
		}
		if i%2 == 1 && s.Len() > 0 {
			tup := s.Tuples()[rng.Intn(s.Len())]
			if err := s.AddTuple(tup, 1); err != nil {
				return err
			}
		}
		votes := make([]bool, 0, len(tests))
		for _, test := range tests {
			ok, err := test(r, s)
			if err != nil {
				return err
			}
			votes = append(votes, ok)
		}
		if votes[0] == votes[1] && votes[1] == votes[2] && votes[2] == votes[3] {
			agree++
		}
	}
	fmt.Fprintf(out, "measured: all four tests agreed on %d/%d random (half perturbed) instances\n", agree, trials)

	sizes := []int{64, 256, 1024, 4096}
	if quick {
		sizes = []int{64, 256}
	}
	fmt.Fprintln(out, "measured scaling (support size -> pair-test time, witness time, witness valid):")
	for _, n := range sizes {
		check, err := timed(fmt.Sprintf("experiments/e1-check-pair/cache=off/support=%d", n), quick)
		if err != nil {
			return err
		}
		wit, err := timed(fmt.Sprintf("experiments/e1-pair-witness/cache=off/support=%d", n), quick)
		if err != nil {
			return err
		}
		r, s := wit.R, wit.S
		valid := false
		if wit.rep.Consistent {
			w, err := wit.rep.WitnessBag()
			if err != nil {
				return err
			}
			wr, err := w.Marginal(r.Schema())
			if err != nil {
				return err
			}
			ws, err := w.Marginal(s.Schema())
			if err != nil {
				return err
			}
			valid = wr.Equal(r) && ws.Equal(s)
		}
		fmt.Fprintf(out, "  |R'|=%-5d |S'|=%-5d consistent=%-5v check=%-10v witness=%-10v valid=%v\n",
			r.SupportSize(), s.SupportSize(), check.rep.Consistent, check.took, wit.took, valid)
	}
	return nil
}

// e2 counts the witnesses of the Section 3 family.
func e2(out io.Writer, quick bool) error {
	fmt.Fprintln(out, "paper: R_{n-1}, S_{n-1} are consistent with exactly 2^{n-1} witnesses, pairwise")
	fmt.Fprintln(out, "       incomparable under bag containment, supports strictly inside (R ⋈b S)'.")
	top := 12
	if quick {
		top = 8
	}
	fmt.Fprintln(out, "measured:   n   witnesses   2^{n-1}   incomparable   inside-join")
	for n := 2; n <= top; n++ {
		r, s, err := gen.Section3Family(n)
		if err != nil {
			return err
		}
		count, err := bagconsist.New().CountPairWitnesses(ctx, r, s)
		if err != nil {
			return err
		}
		// Structural checks on a feasible subset of n (enumeration cost).
		incomparable, insideJoin := "-", "-"
		if n <= 8 {
			join, err := bag.JoinSupports(r, s)
			if err != nil {
				return err
			}
			var ws []*bag.Bag
			if err := bagconsist.New().EnumeratePairWitnesses(ctx, r, s, func(w *bag.Bag) error {
				ws = append(ws, w)
				return nil
			}); err != nil {
				return err
			}
			inc, inj := true, true
			for i, a := range ws {
				if a.Len() >= join.Len() {
					inj = false
				}
				for j, b := range ws {
					if i != j && a.ContainedIn(b) {
						inc = false
					}
				}
			}
			incomparable, insideJoin = fmt.Sprint(inc), fmt.Sprint(inj)
		}
		fmt.Fprintf(out, "  %5d   %9d   %7d   %12s   %11s\n", n, count, 1<<uint(n-1), incomparable, insideJoin)
	}
	return nil
}

// e3 exercises both directions of Theorem 2 on the named families.
func e3(out io.Writer, quick bool) error {
	rng := rand.New(rand.NewSource(3))
	fmt.Fprintln(out, "paper: H acyclic ⇔ every pairwise consistent collection of bags over H is globally consistent.")
	fmt.Fprintln(out, "measured:   schema      acyclic   pairwise-consistent collection   globally consistent")
	type row struct {
		name string
		h    *hypergraph.Hypergraph
	}
	rows := []row{
		{"P3", hypergraph.Path(3)}, {"P5", hypergraph.Path(5)}, {"Star6", hypergraph.Star(6)},
		{"C3", hypergraph.Cycle(3)}, {"C4", hypergraph.Cycle(4)}, {"C5", hypergraph.Cycle(5)},
		{"H4", hypergraph.AllButOne(4)},
	}
	if !quick {
		rows = append(rows, row{"C6", hypergraph.Cycle(6)}, row{"H5", hypergraph.AllButOne(5)})
	}
	for _, r := range rows {
		if r.h.IsAcyclic() {
			c, _, err := gen.RandomConsistent(rng, r.h, 6, 8, 3)
			if err != nil {
				return err
			}
			rep, err := bagconsist.New().CheckGlobal(ctx, c)
			if err != nil {
				return err
			}
			fmt.Fprintf(out, "  %-9s   %-7v   %-30s   %v\n", r.name, true, "random marginal collection", rep.Consistent)
			continue
		}
		c, err := bagconsist.CyclicCounterexample(r.h)
		if err != nil {
			return err
		}
		pw, err := c.PairwiseConsistent()
		if err != nil {
			return err
		}
		rep, err := bagconsist.New(bagconsist.WithMaxNodes(10_000_000)).CheckGlobal(ctx, c)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "  %-9s   %-7v   %-30s   %v (pairwise=%v)\n", r.name, false, "Tseitin counterexample", rep.Consistent, pw)
	}
	return nil
}

// e4 measures the Theorem 3 size bounds on minimal witnesses.
func e4(out io.Writer, quick bool) error {
	rng := rand.New(rand.NewSource(4))
	fmt.Fprintln(out, "paper: witnesses satisfy ‖W‖mu ≤ max‖Ri‖mu and ‖W‖supp ≤ Σ‖Ri‖u; MINIMAL")
	fmt.Fprintln(out, "       witnesses satisfy ‖W‖supp ≤ Σ‖Ri‖b (binary size), so GCPB ∈ NP.")
	trials := 8
	if quick {
		trials = 3
	}
	fmt.Fprintln(out, "measured:  maxMult   ‖W‖supp(min)   Σ‖Ri‖b   Σ‖Ri‖u   bound-holds")
	for i := 0; i < trials; i++ {
		maxMult := int64(1) << uint(4+2*i)
		c, g, err := gen.RandomConsistent(rng, hypergraph.Triangle(), 5, maxMult, 2)
		if err != nil {
			return err
		}
		min, err := bagconsist.New().MinimizeWitness(ctx, c, g)
		if err != nil {
			return err
		}
		var binSum float64
		var unarySum int64
		for _, b := range c.Bags() {
			binSum += b.BinarySize()
			u, err := b.UnarySize()
			if err != nil {
				return err
			}
			unarySum += u
		}
		holds := float64(min.SupportSize()) <= binSum+1e-9
		fmt.Fprintf(out, "  %8d   %12d   %7.1f   %7d   %v\n", maxMult, min.SupportSize(), binSum, unarySum, holds)
	}
	return nil
}

// e5 reproduces Example 1's exponential witness gap.
func e5(out io.Writer, quick bool) error {
	fmt.Fprintln(out, "paper: the chain R_1..R_{n-1} (multiplicity 2^n) has a witness J with |J'| = 2^n,")
	fmt.Fprintln(out, "       exponentially larger than the input; minimal witnesses stay polynomial.")
	top := 16
	if quick {
		top = 10
	}
	fmt.Fprintln(out, "measured:   n   input-support   uniform-witness-support   minimal-witness-support")
	for n := 2; n <= top; n += 2 {
		c, err := gen.Example1Chain(n)
		if err != nil {
			return err
		}
		inputSupport := 0
		for _, b := range c.Bags() {
			inputSupport += b.SupportSize()
		}
		uniform := "-"
		if n <= 12 {
			j, err := gen.Example1UniformWitness(n)
			if err != nil {
				return err
			}
			ok, err := c.VerifyWitness(j)
			if err != nil {
				return err
			}
			if !ok {
				return fmt.Errorf("uniform bag is not a witness at n=%d", n)
			}
			uniform = fmt.Sprint(j.SupportSize())
		} else {
			uniform = fmt.Sprintf("2^%d (not materialized)", n)
		}
		rep, err := bagconsist.New().CheckGlobal(ctx, c)
		if err != nil {
			return err
		}
		if !rep.Consistent {
			return fmt.Errorf("chain inconsistent at n=%d", n)
		}
		fmt.Fprintf(out, "  %5d   %13d   %23s   %23d\n", n, inputSupport, uniform, rep.WitnessSupport)
	}
	return nil
}

// e6 measures the dichotomy's runtime shape: polynomial growth on the
// acyclic path vs super-polynomial growth of branch-and-bound on the
// triangle (3DCT).
func e6(out io.Writer, quick bool) error {
	fmt.Fprintln(out, "paper: GCPB(H) ∈ P for acyclic H; NP-complete for cyclic H (e.g. the triangle, via 3DCT).")
	fmt.Fprintln(out, "measured (acyclic path P_m, marginal instances, domain 4):")
	ms := []int{4, 8, 16, 32}
	if quick {
		ms = []int{4, 8}
	}
	for _, m := range ms {
		row, err := timed(fmt.Sprintf("acyclic/path/cache=off/m=%d,mult=65536", m), quick)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "  m=%-3d bags: consistent=%v method=%s time=%v\n", m, row.rep.Consistent, row.rep.Method, row.took)
	}
	fmt.Fprintln(out, "measured (cyclic triangle C3, random interior 3DCT margins, exact search):")
	ns := []int{2, 3, 4, 5}
	if quick {
		ns = []int{2, 3}
	}
	for _, n := range ns {
		row, err := timed(fmt.Sprintf("cyclic/3dct/integer-program/cache=off/n=%d", n), quick)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "  n=%-3d cube: consistent=%v method=%s nodes=%-8d time=%v\n", n, row.rep.Consistent, row.rep.Method, row.rep.Nodes, row.took)
	}
	fmt.Fprintln(out, "measured (cyclic triangle C3, boundary instances: margins perturbed by")
	fmt.Fprintln(out, " pairwise-consistency-preserving rectangle swaps; worst of 3 trials):")
	bs := []int{3, 4, 5, 6}
	if quick {
		bs = []int{3, 4}
	}
	const budget = 2_000_000
	// The boundary trials are not a benchmark workload: they show budget
	// exhaustion on a few fresh draws per size, from their own generator.
	rng := rand.New(rand.NewSource(6))
	for _, n := range bs {
		var worstNodes int64
		var worstTime time.Duration
		exceeded := 0
		for trial := 0; trial < 3; trial++ {
			inst, err := gen.RandomThreeDCT(rng, n, 3)
			if err != nil {
				return err
			}
			pert, err := gen.PerturbTriangleMargins(rng, inst, 2)
			if err != nil {
				return err
			}
			c, err := pert.ToCollection()
			if err != nil {
				return err
			}
			// One-shot measurement: boundary searches are too expensive to
			// loop, but harness.Once keeps the timing code path shared.
			var rep *bagconsist.Report
			res, err := harness.Once(func() error {
				r, err := bagconsist.New(bagconsist.WithMaxNodes(budget)).CheckGlobal(ctx, c)
				rep = r
				return err
			})
			if err != nil {
				exceeded++
				continue
			}
			if rep.Nodes > worstNodes {
				worstNodes, worstTime = rep.Nodes, res.Duration()
			}
		}
		if exceeded > 0 {
			fmt.Fprintf(out, "  n=%-3d cube: %d/3 trials exceeded the %d-node budget (worst finished: nodes=%d time=%v)\n",
				n, exceeded, budget, worstNodes, worstTime.Round(time.Microsecond))
		} else {
			fmt.Fprintf(out, "  n=%-3d cube: worst nodes=%-8d time=%v\n", n, worstNodes, worstTime.Round(time.Microsecond))
		}
	}
	fmt.Fprintln(out, "shape: acyclic time grows polynomially with m; on the cyclic side the exact")
	fmt.Fprintln(out, "       search explodes on boundary instances (orders of magnitude in nodes,")
	fmt.Fprintln(out, "       up to budget exhaustion), as the Theorem 4 dichotomy predicts.")
	return nil
}

// e7 measures the witness-size guarantees of Theorems 5 and 6.
func e7(out io.Writer, quick bool) error {
	fmt.Fprintln(out, "paper: minimal pair witnesses have ‖W‖supp ≤ ‖R‖supp+‖S‖supp (Thm 5); over acyclic")
	fmt.Fprintln(out, "       schemas a witness with ‖W‖supp ≤ Σ‖Ri‖supp is built in polynomial time (Thm 6).")
	fmt.Fprintln(out, "measured (minimal pair witnesses):")
	sizes := []int{16, 64, 256}
	if quick {
		sizes = []int{16, 64}
	}
	for _, n := range sizes {
		row, err := timed(fmt.Sprintf("experiments/e7-pair-witness/cache=off/support=%d", n), quick)
		if err != nil {
			return err
		}
		bound := row.R.SupportSize() + row.S.SupportSize()
		fmt.Fprintf(out, "  |R'|+|S'|=%-5d ‖W‖supp=%-5d bound-holds=%-5v time=%v\n",
			bound, row.rep.WitnessSupport, row.rep.WitnessSupport <= bound, row.took)
	}
	fmt.Fprintln(out, "measured (acyclic composition over stars):")
	stars := []int{8, 16, 32, 64}
	if quick {
		stars = []int{8, 16}
	}
	for _, m := range stars {
		row, err := timed(fmt.Sprintf("experiments/e7-witness/cache=off/star,m=%d", m), quick)
		if err != nil {
			return err
		}
		sum := 0
		for _, b := range row.Coll.Bags() {
			sum += b.SupportSize()
		}
		w, err := row.rep.WitnessBag()
		if err != nil {
			return err
		}
		valid, err := row.Coll.VerifyWitness(w)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "  m=%-3d bags: ‖W‖supp=%-5d Σ‖Ri‖supp=%-5d bound-holds=%-5v valid=%-5v time=%v\n",
			m, row.rep.WitnessSupport, sum, row.rep.WitnessSupport <= sum, valid, row.took)
	}
	return nil
}

// e8 validates the Lemma 6/7 reduction chains.
func e8(out io.Writer, quick bool) error {
	rng := rand.New(rand.NewSource(8))
	fmt.Fprintln(out, "paper: GCPB(C_{n-1}) ≤p GCPB(C_n) and GCPB(H_{n-1}) ≤p GCPB(H_n); with 3DCT =")
	fmt.Fprintln(out, "       GCPB(C3) NP-hard, every cyclic fixed schema is NP-complete.")
	checker := bagconsist.New(bagconsist.WithMaxNodes(10_000_000))

	for _, consistent := range []bool{true, false} {
		var c *bagconsist.Collection
		var err error
		if consistent {
			inst, err2 := gen.RandomThreeDCT(rng, 2, 2)
			if err2 != nil {
				return err2
			}
			c, err = inst.ToCollection()
		} else {
			c, err = bagconsist.TseitinCollection(hypergraph.Triangle())
		}
		if err != nil {
			return err
		}
		want, err := checker.CheckGlobal(ctx, c)
		if err != nil {
			return err
		}
		top := 6
		if quick {
			top = 5
		}
		fmt.Fprintf(out, "measured cycle chain from C3 (consistent=%v): ", want.Consistent)
		for n := 4; n <= top; n++ {
			c, err = reductions.LiftCycleInstance(c)
			if err != nil {
				return err
			}
			rep, err := checker.CheckGlobal(ctx, c)
			if err != nil {
				return err
			}
			fmt.Fprintf(out, "C%d=%v ", n, rep.Consistent)
			if rep.Consistent != want.Consistent {
				return fmt.Errorf("cycle lift changed consistency at n=%d", n)
			}
		}
		fmt.Fprintln(out, "(preserved)")
	}

	for _, consistent := range []bool{true, false} {
		var c *bagconsist.Collection
		var err error
		if consistent {
			c, _, err = gen.RandomConsistent(rng, hypergraph.AllButOne(3), 3, 2, 2)
		} else {
			c, err = bagconsist.TseitinCollection(hypergraph.AllButOne(3))
		}
		if err != nil {
			return err
		}
		want, err := checker.CheckGlobal(ctx, c)
		if err != nil {
			return err
		}
		lifted, err := reductions.LiftAllButOneInstance(c)
		if err != nil {
			return err
		}
		rep, err := checker.CheckGlobal(ctx, lifted)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "measured H3 -> H4 (consistent=%v): H4=%v (preserved=%v)\n", want.Consistent, rep.Consistent, rep.Consistent == want.Consistent)
		if rep.Consistent != want.Consistent {
			return fmt.Errorf("H lift changed consistency")
		}
	}
	return nil
}

// e9 exercises the set-semantics baseline.
func e9(out io.Writer, quick bool) error {
	rng := rand.New(rand.NewSource(9))
	fmt.Fprintln(out, "paper: relation global consistency is NP-complete in general (3-colorability, six-pair")
	fmt.Fprintln(out, "       binary relations) but polynomial for every fixed schema (join criterion) —")
	fmt.Fprintln(out, "       unlike bags, where fixed cyclic schemas stay NP-complete.")
	trials := 20
	if quick {
		trials = 8
	}
	match := 0
	for i := 0; i < trials; i++ {
		n := 4 + rng.Intn(3)
		edges := gen.RandomGraph(rng, n, 0.5)
		if len(edges) == 0 {
			edges = [][2]int{{0, 1}}
		}
		_, rels, err := reductions.ThreeColoringInstance(n, edges)
		if err != nil {
			return err
		}
		consistent, _, err := relational.GloballyConsistent(rels)
		if err != nil {
			return err
		}
		if consistent == reductions.ThreeColorable(n, edges) {
			match++
		}
	}
	fmt.Fprintf(out, "measured: reduction agreed with brute-force 3-colorability on %d/%d random graphs\n", match, trials)

	fmt.Fprintln(out, "measured (fixed triangle schema, join criterion on growing relations):")
	sizes := []int{8, 16, 32, 64}
	if quick {
		sizes = []int{8, 16}
	}
	for _, n := range sizes {
		row, err := timed(fmt.Sprintf("core/relational-consistent/cache=off/triangle,size=%d", n), quick)
		if err != nil {
			return err
		}
		consistent, _, err := relational.GloballyConsistent(row.Rels)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "  |Ri| ≈ %-4d consistent=%v time=%v (polynomial: full join + projections)\n",
			row.Rels[0].Len(), consistent, row.took)
	}
	return nil
}

// e10 exercises the implemented Section 6 (concluding remarks) directions.
func e10(out io.Writer, quick bool) error {
	rng := rand.New(rand.NewSource(10))
	fmt.Fprintln(out, "paper (concluding remarks): full reducers exist for relations over acyclic")
	fmt.Fprintln(out, " schemas but no bag analogue is known; the relaxed consistency of [AK20] and")
	fmt.Fprintln(out, " the strict notion studied here differ exactly by normalization; LP can")
	fmt.Fprintln(out, " minimize any linear function of a witnessing bag's multiplicities (Sec. 3).")

	// Relaxed vs strict.
	h := hypergraph.Path(3)
	c, _, err := gen.RandomConsistent(rng, h, 5, 4, 3)
	if err != nil {
		return err
	}
	scaled, err := gen.ScaleCollection(c, 1)
	if err != nil {
		return err
	}
	// Scale only the second bag by 3.
	bags := scaled.Bags()
	three := bag.New(bags[1].Schema())
	err = bags[1].Each(func(t bag.Tuple, count int64) error { return three.AddTuple(t, 3*count) })
	if err != nil {
		return err
	}
	bags[1] = three
	mixed, err := bagconsist.NewCollection(h, bags)
	if err != nil {
		return err
	}
	strictRep, err := bagconsist.New().CheckGlobal(ctx, mixed)
	if err != nil {
		return err
	}
	relaxedOK, err := mixed.RelaxedGloballyConsistent()
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "measured (one bag scaled 3x): strict=%v relaxed=%v — the normalization gap\n", strictRep.Consistent, relaxedOK)

	// Tseitin under both notions.
	ts, err := bagconsist.TseitinCollection(hypergraph.Triangle())
	if err != nil {
		return err
	}
	sPW, err := ts.PairwiseConsistent()
	if err != nil {
		return err
	}
	rPW, err := ts.RelaxedPairwiseConsistent()
	if err != nil {
		return err
	}
	sG, err := bagconsist.New().CheckGlobal(ctx, ts)
	if err != nil {
		return err
	}
	rG, err := ts.RelaxedGloballyConsistent()
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "measured (Tseitin triangle): strict pairwise=%v global=%v; relaxed pairwise=%v global=%v\n",
		sPW, sG.Consistent, rPW, rG)

	// Full reducer on the set baseline.
	p4 := hypergraph.Path(4)
	g, err := gen.RandomGlobalBag(rng, p4, 8, 1, 3)
	if err != nil {
		return err
	}
	var rels []*relational.Relation
	for i := 0; i < p4.NumEdges(); i++ {
		s, err := bag.NewSchema(p4.Edge(i)...)
		if err != nil {
			return err
		}
		m, err := g.Marginal(s)
		if err != nil {
			return err
		}
		r := relational.FromBagSupport(m)
		// Insert a dangling tuple to be eliminated.
		row := make([]string, 2)
		row[0], row[1] = "z9", "z9"
		if err := r.Add(row); err != nil {
			return err
		}
		rels = append(rels, r)
	}
	before := 0
	for _, r := range rels {
		before += r.Len()
	}
	reduced, err := relational.FullReduce(p4, rels)
	if err != nil {
		return err
	}
	after := 0
	for _, r := range reduced {
		after += r.Len()
	}
	okGlobal, _, err := relational.GloballyConsistent(reduced)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "measured (full reducer, P4 with dangling tuples): %d tuples -> %d, output globally consistent=%v\n",
		before, after, okGlobal)

	// Min-cost witness.
	r, s, err := gen.Section3Family(4)
	if err != nil {
		return err
	}
	costly := func(t bag.Tuple) int64 {
		if v, _ := t.Value("C"); v == "1" {
			return 5
		}
		return 1
	}
	w, ok, err := bagconsist.MinCostPairWitness(r, s, costly)
	if err != nil || !ok {
		return fmt.Errorf("min-cost witness failed: %v", err)
	}
	cost, err := bagconsist.WitnessCost(w, costly)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "measured (min-cost witness over Section 3 family, n=4): cost=%v support=%d — LP-optimal and integral\n",
		cost, w.SupportSize())
	return nil
}
