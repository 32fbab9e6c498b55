package core

import (
	"context"
	"errors"
	"math/rand"
	"slices"
	"strconv"
	"testing"
	"time"

	"bagconsistency/internal/bag"
	"bagconsistency/internal/hypergraph"
)

// sameWitness fails unless a and b are byte-identical bags: same schema,
// same dictionaries, and the same rows with the same multiplicities in
// the same buffer order.
func sameWitness(t *testing.T, label string, got, want *bag.Bag) {
	t.Helper()
	if (got == nil) != (want == nil) {
		t.Fatalf("%s: kernel witness %v, oracle witness %v", label, got, want)
	}
	if got == nil {
		return
	}
	gv, wv := got.View(), want.View()
	if !gv.Schema.Equal(wv.Schema) || !slices.Equal(gv.Cols, wv.Cols) || gv.Rows.W != wv.Rows.W {
		t.Fatalf("%s: layouts differ: %v vs %v", label, gv.Schema, wv.Schema)
	}
	if !slices.Equal(gv.Rows.IDs, wv.Rows.IDs) || !slices.Equal(gv.Rows.Counts, wv.Rows.Counts) {
		t.Fatalf("%s: rows differ\nkernel:\n%v\noracle:\n%v", label, got, want)
	}
}

// checkAgainstOracle runs the kernel and the network probe loop on one
// pair, requires identical answers and witnesses, and verifies the
// witness. It returns the kernel's witness.
func checkAgainstOracle(t *testing.T, label string, r, s *bag.Bag) *bag.Bag {
	t.Helper()
	got, ok, err := MinimalPairWitness(r, s)
	if err != nil {
		t.Fatalf("%s: kernel: %v", label, err)
	}
	want, wantOK, err := oracleMinimalPairWitness(r, s)
	if err != nil {
		t.Fatalf("%s: oracle: %v", label, err)
	}
	if ok != wantOK {
		t.Fatalf("%s: kernel ok=%v, oracle ok=%v", label, ok, wantOK)
	}
	sameWitness(t, label, got, want)
	if ok {
		verifyPairWitness(t, label, r, s, got)
	}
	return got
}

func verifyPairWitness(t *testing.T, label string, r, s, w *bag.Bag) {
	t.Helper()
	wr, err := w.Marginal(r.Schema())
	if err != nil {
		t.Fatal(err)
	}
	ws, err := w.Marginal(s.Schema())
	if err != nil {
		t.Fatal(err)
	}
	if !wr.Equal(r) || !ws.Equal(s) {
		t.Fatalf("%s: witness marginals differ from the pair", label)
	}
	if w.SupportSize() > r.SupportSize()+s.SupportSize() {
		t.Fatalf("%s: Theorem 5 bound: ‖W‖supp = %d > %d + %d", label, w.SupportSize(), r.SupportSize(), s.SupportSize())
	}
}

// pairShape is a schema pair of the differential suite.
type pairShape struct {
	name string
	x, y []string
}

var pairShapes = []pairShape{
	{"disjoint", []string{"A", "B"}, []string{"C"}},
	{"one-attribute", []string{"A", "B"}, []string{"B", "C"}},
	{"two-attribute", []string{"A", "B", "C"}, []string{"B", "C", "D"}},
	{"identical", []string{"A", "B"}, []string{"A", "B"}},
}

// randomMarginalPair draws a bag over X∪Y with n rows (collisions merge),
// per-attribute domain dom and multiplicities in [1, maxMult], and
// returns its marginals on X and Y — a consistent pair.
func randomMarginalPair(t *testing.T, rng *rand.Rand, sh pairShape, n, dom int, maxMult int64) (*bag.Bag, *bag.Bag) {
	t.Helper()
	u := bag.MustSchema(append(slices.Clone(sh.x), sh.y...)...)
	g := bag.New(u)
	for i := 0; i < n; i++ {
		vals := make([]string, u.Len())
		for j := range vals {
			vals[j] = strconv.Itoa(rng.Intn(dom))
		}
		if err := g.Add(vals, 1+rng.Int63n(maxMult)); err != nil {
			t.Fatal(err)
		}
	}
	r, err := g.Marginal(bag.MustSchema(sh.x...))
	if err != nil {
		t.Fatal(err)
	}
	s, err := g.Marginal(bag.MustSchema(sh.y...))
	if err != nil {
		t.Fatal(err)
	}
	return r, s
}

func TestMinimalPairWitnessMatchesNetworkLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(1301))
	mults := []int64{1, 3, 9, 1 << 20, 1 << 40}
	for _, sh := range pairShapes {
		for trial := 0; trial < 150; trial++ {
			n := rng.Intn(40)
			dom := 1 + rng.Intn(6)
			maxMult := mults[rng.Intn(len(mults))]
			r, s := randomMarginalPair(t, rng, sh, n, dom, maxMult)
			label := sh.name + "/" + strconv.Itoa(trial)
			checkAgainstOracle(t, label, r, s)
			// The same pair made inconsistent: both must refuse it.
			if r.Len() > 0 {
				bumped := r.Clone()
				tp := bumped.Tuples()[rng.Intn(bumped.Len())]
				if err := bumped.AddTuple(tp, 1); err != nil {
					t.Fatal(err)
				}
				checkAgainstOracle(t, label+"/bumped", bumped, s)
			}
		}
	}
}

func TestMinimalPairWitnessMatchesNetworkLoopEdgeShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(1302))
	// Single-row blocks: a join domain far larger than the support puts
	// most join values on one row of each side.
	for trial := 0; trial < 60; trial++ {
		r, s := randomMarginalPair(t, rng, pairShapes[1], 1+rng.Intn(30), 1000, 1<<40)
		checkAgainstOracle(t, "single-row/"+strconv.Itoa(trial), r, s)
	}
	// One shared value: the whole pair is one dense block.
	for trial := 0; trial < 30; trial++ {
		r, s := randomMarginalPair(t, rng, pairShapes[1], 10+rng.Intn(30), 1, 1<<20)
		checkAgainstOracle(t, "one-block/"+strconv.Itoa(trial), r, s)
	}
	// Empty bags: consistent when both are empty, not otherwise.
	for _, sh := range pairShapes {
		empty := bag.New(bag.MustSchema(sh.x...))
		checkAgainstOracle(t, sh.name+"/empty", empty, bag.New(bag.MustSchema(sh.y...)))
		_, s := randomMarginalPair(t, rng, sh, 5, 3, 4)
		checkAgainstOracle(t, sh.name+"/empty-vs-nonempty", empty, s)
	}
	// One p×q block each. The kernel holds the rows below the current
	// one as an aggregate row: tall blocks keep it long, wide blocks make
	// every row a long search, and q = 1 leaves no column to reroute to.
	small := func(int) int64 { return 1 + rng.Int63n(1000) }
	for trial := 0; trial < 20; trial++ {
		label := "/" + strconv.Itoa(trial)
		r, s := blockPair(t, rng, 40+rng.Intn(30), 1+rng.Intn(3), rng.Intn(60), small)
		checkAgainstOracle(t, "tall"+label, r, s)
		r, s = blockPair(t, rng, 1+rng.Intn(3), 40+rng.Intn(30), rng.Intn(60), small)
		checkAgainstOracle(t, "wide"+label, r, s)
		r, s = blockPair(t, rng, 1+rng.Intn(40), 1, 0, small)
		checkAgainstOracle(t, "one-column"+label, r, s)
		// The last row carries most of the demand, so the aggregate
		// empties only when that row takes its share.
		p := 5 + rng.Intn(25)
		r, s = blockPair(t, rng, p, 5+rng.Intn(25), p+rng.Intn(40), func(a int) int64 {
			if a == p-1 {
				return 1<<30 + rng.Int63n(1<<20)
			}
			return 1 + rng.Int63n(8)
		})
		checkAgainstOracle(t, "heavy-last-row"+label, r, s)
		// Six rows near 2^60 put about 2^61 on every column: spare and
		// flows stay within the block's total, which fits in int64.
		r, s = blockPair(t, rng, 40+rng.Intn(20), 3, 0, func(a int) int64 {
			if a < 6 {
				return 1<<60 - rng.Int63n(1<<20)
			}
			return 1 + rng.Int63n(1<<40)
		})
		checkAgainstOracle(t, "tall-2^60"+label, r, s)
	}
}

// blockPair returns the marginals on {A} and {B} of a bag over {A,B}
// holding cell (c mod p, c mod q) for every c < max(p,q), so that every
// row and column occurs, and extra random cells: a consistent pair that
// is one p×q block. A cell in row a has multiplicity mult(a); colliding
// cells merge.
func blockPair(t *testing.T, rng *rand.Rand, p, q, extra int, mult func(a int) int64) (*bag.Bag, *bag.Bag) {
	t.Helper()
	g := bag.New(bag.MustSchema("A", "B"))
	add := func(a, b int) {
		if err := g.Add([]string{strconv.Itoa(a), strconv.Itoa(b)}, mult(a)); err != nil {
			t.Fatal(err)
		}
	}
	for c := 0; c < max(p, q); c++ {
		add(c%p, c%q)
	}
	for e := 0; e < extra; e++ {
		add(rng.Intn(p), rng.Intn(q))
	}
	r, err := g.Marginal(bag.MustSchema("A"))
	if err != nil {
		t.Fatal(err)
	}
	s, err := g.Marginal(bag.MustSchema("B"))
	if err != nil {
		t.Fatal(err)
	}
	return r, s
}

// TestMinimalPairWitnessMatchesNetworkLoopOnCompositions replays the
// Theorem 6 composition on path and star schemas of the acyclic-fresh
// benchmark's size (8-attribute paths, 6-leaf stars, support 128,
// domain 10, multiplicities up to 8), checking every step.
func TestMinimalPairWitnessMatchesNetworkLoopOnCompositions(t *testing.T) {
	rng := rand.New(rand.NewSource(1303))
	instances := 8
	if testing.Short() {
		instances = 2
	}
	for i := 0; i < instances; i++ {
		h := hypergraph.Path(8)
		if i%2 == 1 {
			h = hypergraph.Star(6)
		}
		g := randomGlobalBagDomain(t, rng, h, 128, 10, 8)
		c := mustMarginalCollection(t, h, g)
		order, err := c.hg.RunningIntersectionOrder()
		if err != nil {
			t.Fatal(err)
		}
		acc := c.bags[order[0]].Clone()
		for step, idx := range order[1:] {
			acc = checkAgainstOracle(t, "composition/"+strconv.Itoa(i)+"/"+strconv.Itoa(step), acc, c.bags[idx])
		}
		if ok, err := c.VerifyWitness(acc); err != nil || !ok {
			t.Fatalf("composition %d: witness fails verification (err %v)", i, err)
		}
	}
}

func randomGlobalBagDomain(t *testing.T, rng *rand.Rand, h *hypergraph.Hypergraph, n, dom int, maxMult int64) *bag.Bag {
	t.Helper()
	g := bag.New(bag.MustSchema(h.Vertices()...))
	vals := make([]string, len(h.Vertices()))
	for i := 0; i < n; i++ {
		for j := range vals {
			vals[j] = strconv.Itoa(rng.Intn(dom))
		}
		if err := g.Add(vals, 1+rng.Int63n(maxMult)); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

// FuzzMinimalPairWitness builds two small bags from the input — the
// marginals of one bag over X∪Y, with the last byte optionally bumping a
// row of R so inconsistent pairs are covered too — and requires the
// kernel's witness to equal the network loop's and to verify.
func FuzzMinimalPairWitness(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add([]byte{1, 0, 0, 0, 1, 1, 1, 2, 2, 2, 3, 3})
	f.Add([]byte{2, 0xff, 0x10, 0x20, 0x30, 0x40, 0x50, 0x60, 0x70})
	f.Add([]byte{3, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 1})
	f.Add([]byte{5, 0x81, 0x42, 0x23, 0x14, 0x95, 0x36, 0x77, 0x18, 0x29})
	// Tall: the disjoint shape with all 16 (A,B) rows on one C value, a
	// 16×1 block. Wide: the one-attribute shape with one A value per B
	// value and all four C values, 1×4 blocks.
	tall := []byte{0}
	for ab := byte(0); ab < 16; ab++ {
		tall = append(tall, ab/4, ab%4, 0, ab)
	}
	f.Add(tall)
	wide := []byte{1}
	for bc := byte(0); bc < 16; bc++ {
		wide = append(wide, bc/4, bc/4, bc%4, bc+1)
	}
	f.Add(wide)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 || len(data) > 256 {
			return
		}
		sh := pairShapes[int(data[0])%len(pairShapes)]
		big := data[0]&0x80 != 0
		u := bag.MustSchema(append(slices.Clone(sh.x), sh.y...)...)
		g := bag.New(u)
		w := u.Len() + 1
		body := data[1:]
		for ; len(body) >= w; body = body[w:] {
			vals := make([]string, u.Len())
			for j := range vals {
				vals[j] = strconv.Itoa(int(body[j] % 4))
			}
			m := int64(body[u.Len()]%16) + 1
			if big {
				m <<= 36
			}
			if err := g.Add(vals, m); err != nil {
				t.Fatal(err)
			}
		}
		r, err := g.Marginal(bag.MustSchema(sh.x...))
		if err != nil {
			t.Fatal(err)
		}
		s, err := g.Marginal(bag.MustSchema(sh.y...))
		if err != nil {
			t.Fatal(err)
		}
		if len(body) > 0 && body[0]%2 == 1 && r.Len() > 0 {
			if err := r.AddTuple(r.Tuples()[int(body[0])%r.Len()], 1); err != nil {
				t.Fatal(err)
			}
		}
		checkAgainstOracle(t, "fuzz", r, s)
	})
}

// TestPairWitnessLargeMiddleArcsDoNotOverflow is the regression for the
// spurious overflow: 4 rows of 2^60 on each side sharing one join value
// total 2^62 per side, but the 16 middle arcs' capacities sum to 2^64.
func TestPairWitnessLargeMiddleArcsDoNotOverflow(t *testing.T) {
	var rrows, srows [][]string
	for i := 0; i < 4; i++ {
		rrows = append(rrows, []string{"a" + strconv.Itoa(i), "z"})
		srows = append(srows, []string{"z", "c" + strconv.Itoa(i)})
	}
	counts := []int64{1 << 60, 1 << 60, 1 << 60, 1 << 60}
	r := mustBag(t, bag.MustSchema("A", "B"), rrows, counts)
	s := mustBag(t, bag.MustSchema("B", "C"), srows, counts)
	for name, fn := range map[string]func(r, s *bag.Bag) (*bag.Bag, bool, error){
		"MinimalPairWitness": MinimalPairWitness,
		"PairWitness":        PairWitness,
	} {
		w, ok, err := fn(r, s)
		if err != nil || !ok {
			t.Fatalf("%s: ok=%v err=%v", name, ok, err)
		}
		verifyPairWitness(t, name, r, s, w)
	}
	if ok, err := PairConsistentViaFlow(r, s); err != nil || !ok {
		t.Fatalf("PairConsistentViaFlow: ok=%v err=%v", ok, err)
	}
	checkAgainstOracle(t, "4x4", r, s)
}

// TestPairWitnessOverflowErrorIsTyped keeps the typed error where it is
// due: R's and S's totals both exceed int64 while every shared marginal
// fits, so the pair is consistent but no flow value is representable.
func TestPairWitnessOverflowErrorIsTyped(t *testing.T) {
	const big = 1 << 62
	r := mustBag(t, bag.MustSchema("A", "B"), [][]string{{"a", "x"}, {"a", "y"}}, []int64{big, big})
	s := mustBag(t, bag.MustSchema("B", "C"), [][]string{{"x", "c"}, {"y", "c"}}, []int64{big, big})
	for name, fn := range map[string]func(r, s *bag.Bag) (*bag.Bag, bool, error){
		"MinimalPairWitness": MinimalPairWitness,
		"PairWitness":        PairWitness,
	} {
		var oe *OverflowError
		if _, _, err := fn(r, s); !errors.As(err, &oe) {
			t.Fatalf("%s: err = %v, want *OverflowError", name, err)
		}
	}
	var oe *OverflowError
	if _, err := PairConsistentViaFlow(r, s); !errors.As(err, &oe) {
		t.Fatalf("PairConsistentViaFlow: err = %v, want *OverflowError", err)
	}
}

// TestMinimalPairWitnessCancelsPromptly cancels a composition whose one
// step is a large disjoint-schema pair — a single 4000×4000 block, which
// takes about 0.8 s to minimize on a 2-vCPU x86-64 container (a
// 1000×1000 block takes 30–45 ms, too close to the cancel point) —
// and requires the context error back soon after the cancel.
func TestMinimalPairWitnessCancelsPromptly(t *testing.T) {
	rng := rand.New(rand.NewSource(1304))
	const n = 4000
	r, s := bag.New(bag.MustSchema("A")), bag.New(bag.MustSchema("B"))
	var total int64
	for i := 0; i < n; i++ {
		m := 1 + rng.Int63n(1000)
		total += m
		if err := r.Add([]string{strconv.Itoa(i)}, m); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n-1; i++ {
		m := 1 + rng.Int63n(min(1000, total-int64(n-1-i)))
		total -= m
		if err := s.Add([]string{strconv.Itoa(i)}, m); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Add([]string{strconv.Itoa(n - 1)}, total); err != nil {
		t.Fatal(err)
	}
	c, err := NewCollection2(r, s)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	const after = 20 * time.Millisecond
	timer := time.AfterFunc(after, cancel)
	defer timer.Stop()
	start := time.Now()
	_, _, err = c.WitnessAcyclicContext(ctx, GlobalOptions{})
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v after %v, want context.Canceled", err, elapsed)
	}
	if late := elapsed - after; late > 250*time.Millisecond {
		t.Fatalf("returned %v after the cancel", late)
	}
}
