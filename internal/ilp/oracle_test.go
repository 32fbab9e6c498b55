package ilp_test

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"bagconsistency/internal/gen"
	"bagconsistency/internal/ilp"
)

// The clone oracle is the sequential search this package shipped before
// it ran in place: the same branch-and-bound over the same tree, but every
// branch attempt works on a fresh copy of the node's state, propagation
// rescans every row to a fixpoint, and completion scans every residual.
// It is kept as an independent reference: ilp.Solve with its randomized
// runs held off must return its verdict, witness and node count and fail
// with ErrNodeLimit at the same budget, and ilp.Enumerate must emit its
// solutions in the same order. It takes only valid problems and never
// polls a context.

// oracleState is one node's residuals and column activity.
type oracleState struct {
	residual []int64
	active   []bool
	nActive  []int
	x        []int64
}

func (s *oracleState) clone() *oracleState {
	return &oracleState{
		residual: append([]int64(nil), s.residual...),
		active:   append([]bool(nil), s.active...),
		nActive:  append([]int(nil), s.nActive...),
		x:        append([]int64(nil), s.x...),
	}
}

type oracleSearcher struct {
	p        *ilp.Problem
	rowCols  [][]int
	nodes    int64
	maxNodes int64
}

func newOracle(p *ilp.Problem, opts ilp.Options) (*oracleSearcher, *oracleState) {
	rowCols := make([][]int, p.M)
	for j, rows := range p.Cols {
		for _, r := range rows {
			rowCols[r] = append(rowCols[r], j)
		}
	}
	maxNodes := opts.MaxNodes
	if maxNodes == 0 {
		maxNodes = ilp.DefaultMaxNodes
	}
	st := &oracleState{
		residual: append([]int64(nil), p.B...),
		active:   make([]bool, len(p.Cols)),
		nActive:  make([]int, p.M),
		x:        make([]int64, len(p.Cols)),
	}
	for j := range st.active {
		st.active[j] = true
		st.x[j] = -1
	}
	for i, cols := range rowCols {
		st.nActive[i] = len(cols)
	}
	return &oracleSearcher{p: p, rowCols: rowCols, maxNodes: maxNodes}, st
}

var errOracleStop = errors.New("oracle: stop")

// oracleSolve is ilp.Solve on the clone oracle.
func oracleSolve(p *ilp.Problem, opts ilp.Options) (*ilp.Solution, error) {
	sr, st := newOracle(p, opts)
	var found []int64
	solved := false
	err := sr.dfs(st, func(x []int64) error {
		found = append([]int64(nil), x...)
		solved = true
		return errOracleStop
	})
	if err != nil && !errors.Is(err, errOracleStop) {
		return nil, err
	}
	if !solved {
		return &ilp.Solution{Nodes: sr.nodes}, nil
	}
	return &ilp.Solution{Feasible: true, X: found, Nodes: sr.nodes}, nil
}

// oracleEnumerate is ilp.Enumerate on the clone oracle.
func oracleEnumerate(p *ilp.Problem, opts ilp.Options, fn func(x []int64) error) error {
	sr, st := newOracle(p, opts)
	return sr.dfs(st, fn)
}

func (sr *oracleSearcher) assign(st *oracleState, j int, v int64) bool {
	st.active[j] = false
	st.x[j] = v
	for _, r := range sr.p.Cols[j] {
		st.residual[r] -= v
		st.nActive[r]--
		if st.residual[r] < 0 {
			return false
		}
		if st.residual[r] > 0 && st.nActive[r] == 0 {
			return false
		}
	}
	return true
}

func (sr *oracleSearcher) propagate(st *oracleState) bool {
	for {
		changed := false
		for i := 0; i < sr.p.M; i++ {
			if st.residual[i] != 0 || st.nActive[i] == 0 {
				continue
			}
			for _, j := range sr.rowCols[i] {
				if st.active[j] {
					if !sr.assign(st, j, 0) {
						return false
					}
					changed = true
				}
			}
		}
		if !changed {
			return true
		}
	}
}

func (st *oracleState) done() bool {
	for _, r := range st.residual {
		if r != 0 {
			return false
		}
	}
	return true
}

func (st *oracleState) solution() []int64 {
	sol := make([]int64, len(st.x))
	for j, v := range st.x {
		if v < 0 {
			v = 0
		}
		sol[j] = v
	}
	return sol
}

func (sr *oracleSearcher) branchOn(st *oracleState) (branch int, ub int64, ok bool) {
	row := -1
	for i := 0; i < sr.p.M; i++ {
		if st.residual[i] > 0 && (row < 0 || st.nActive[i] < st.nActive[row]) {
			row = i
		}
	}
	if row < 0 {
		return 0, 0, false
	}
	branch = -1
	for _, j := range sr.rowCols[row] {
		if st.active[j] {
			branch = j
			break
		}
	}
	if branch < 0 {
		return 0, 0, false
	}
	ub = -1
	for _, r := range sr.p.Cols[branch] {
		if ub < 0 || st.residual[r] < ub {
			ub = st.residual[r]
		}
	}
	return branch, ub, true
}

func (sr *oracleSearcher) dfs(st *oracleState, fn func(x []int64) error) error {
	sr.nodes++
	if sr.nodes > sr.maxNodes {
		return ilp.ErrNodeLimit
	}
	if !sr.propagate(st) {
		return nil
	}
	if st.done() {
		return fn(st.solution())
	}
	branch, ub, ok := sr.branchOn(st)
	if !ok {
		return nil
	}
	for v := ub; v >= 0; v-- {
		child := st.clone()
		if !sr.assign(child, branch, v) {
			continue
		}
		if err := sr.dfs(child, fn); err != nil {
			return err
		}
	}
	return nil
}

// oracleBudget is the node budget of every oracle comparison. A few
// cyclic-fresh-shaped programs need far more; both searches must then
// stop at the same node with ErrNodeLimit.
const oracleBudget = 20_000

var errEnumerateCap = errors.New("enumerate cap reached")

// enumerateUpTo collects the first limit solutions enumerate emits on p,
// and the error it stopped with (nil at the limit).
func enumerateUpTo(p *ilp.Problem, opts ilp.Options, limit int, enumerate func(*ilp.Problem, ilp.Options, func([]int64) error) error) ([][]int64, error) {
	var sols [][]int64
	err := enumerate(p, opts, func(x []int64) error {
		sols = append(sols, append([]int64(nil), x...))
		if len(sols) == limit {
			return errEnumerateCap
		}
		return nil
	})
	if errors.Is(err, errEnumerateCap) {
		err = nil
	}
	return sols, err
}

// portfolioSolo is the node count up to which Solve's schedule runs the
// deterministic walk alone.
const portfolioSolo = 4096

// matchOracle fails unless the in-place search agrees with the clone
// oracle on p. The deterministic walk must match it exactly: Solve's
// verdict, witness, node count and error; an ErrNodeLimit one node short
// of that count; and Enumerate's solutions, in order, with the same
// stopping error. Enumeration stops after 64 solutions. Solve's full
// schedule must return the oracle's verdict with a witness that verifies,
// within twice the oracle's budget, and the oracle's witness and node
// count on trees the solo phase decides.
func matchOracle(t *testing.T, label string, p *ilp.Problem) {
	t.Helper()
	opts := ilp.Options{MaxNodes: oracleBudget}
	want, wantErr := oracleSolve(p, opts)
	full, err := ilp.Solve(p, ilp.Options{MaxNodes: 2 * oracleBudget})
	switch {
	case err != nil && (wantErr == nil || !errors.Is(err, ilp.ErrNodeLimit)):
		t.Fatalf("%s: portfolio Solve error %v, oracle %v", label, err, wantErr)
	case err == nil && full.Feasible && !p.Verify(full.X):
		t.Fatalf("%s: portfolio witness %v does not verify", label, full.X)
	case wantErr == nil && full.Feasible != want.Feasible:
		t.Fatalf("%s: portfolio verdict %v, oracle %v", label, full.Feasible, want.Feasible)
	case wantErr == nil && want.Nodes <= portfolioSolo && (full.Nodes != want.Nodes || !slices.Equal(full.X, want.X)):
		t.Fatalf("%s: portfolio Solve = (%d nodes, %v), oracle (%d nodes, %v)",
			label, full.Nodes, full.X, want.Nodes, want.X)
	}
	opts = ilp.Deterministic(opts)
	got, err := ilp.Solve(p, opts)
	if !errors.Is(err, wantErr) {
		t.Fatalf("%s: Solve error %v, oracle %v", label, err, wantErr)
	}
	if wantErr == nil {
		if got.Feasible != want.Feasible || got.Nodes != want.Nodes || !slices.Equal(got.X, want.X) {
			t.Fatalf("%s: Solve = (%v, %d nodes, %v), oracle (%v, %d nodes, %v)",
				label, got.Feasible, got.Nodes, got.X, want.Feasible, want.Nodes, want.X)
		}
		if want.Nodes > 1 {
			short := opts
			short.MaxNodes = want.Nodes - 1
			if _, err := ilp.Solve(p, short); !errors.Is(err, ilp.ErrNodeLimit) {
				t.Fatalf("%s: Solve at %d nodes: error %v, want ErrNodeLimit", label, short.MaxNodes, err)
			}
		}
	}
	gotSols, err := enumerateUpTo(p, opts, 64, ilp.Enumerate)
	wantSols, wantErr := enumerateUpTo(p, opts, 64, oracleEnumerate)
	if !errors.Is(err, wantErr) {
		t.Fatalf("%s: Enumerate error %v, oracle %v", label, err, wantErr)
	}
	if !slices.EqualFunc(gotSols, wantSols, slices.Equal) {
		t.Fatalf("%s: Enumerate emitted %d solutions, oracle %d, or in another order",
			label, len(gotSols), len(wantSols))
	}
}

// cyclicFreshPrograms builds whole-collection programs shaped like
// perfbench's cyclic-fresh families, n of each: margins of random 5×5×5
// tables with cells ≤ 2, and a 6-edge path plus 2 chords over a random
// global bag of support 32 and domain 32.
func cyclicFreshPrograms(t *testing.T, rng *rand.Rand, n int) []*ilp.Problem {
	t.Helper()
	var out []*ilp.Problem
	for i := 0; i < n; i++ {
		inst, err := gen.RandomThreeDCT(rng, 5, 2)
		if err != nil {
			t.Fatal(err)
		}
		coll, err := inst.ToCollection()
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, engineProgram(t, coll))

		h, err := gen.NearAcyclicHypergraph(6, 2)
		if err != nil {
			t.Fatal(err)
		}
		coll, _, err = gen.RandomConsistent(rng, h, 32, 3, 32)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, engineProgram(t, coll))
	}
	return out
}

func TestSolveMatchesCloneOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	var random []*ilp.Problem
	for i := 0; i < 300; i++ {
		random = append(random, randomProblem(rng))
	}
	corpora := engineCorpora(t)
	fresh := cyclicFreshPrograms(t, rng, 40)
	for i, p := range random {
		matchOracle(t, fmt.Sprintf("random %d", i), p)
	}
	for _, c := range corpora {
		matchOracle(t, c.label, c.p)
	}
	for i, p := range fresh {
		matchOracle(t, fmt.Sprintf("cyclic-fresh %d", i), p)
	}
}
