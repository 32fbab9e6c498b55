package lp

import (
	"math/big"
	"math/rand"
	"testing"
)

func ratEq(t *testing.T, got *big.Rat, num, den int64) {
	t.Helper()
	want := big.NewRat(num, den)
	if got.Cmp(want) != 0 {
		t.Errorf("got %v, want %v", got, want)
	}
}

// ints is an integral right-hand side.
func ints(v ...int64) []*big.Rat {
	b := make([]*big.Rat, len(v))
	for i, x := range v {
		b[i] = big.NewRat(x, 1)
	}
	return b
}

func TestFeasibleSimpleSystem(t *testing.T) {
	// x0 + x1 = 3 (row 0), x1 = 1 (row 1) → x0 = 2, x1 = 1.
	res, err := Solve(2, [][]int{{0}, {0, 1}}, ints(3, 1), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Feasible {
		t.Fatal("system should be feasible")
	}
	ratEq(t, res.X[0], 2, 1)
	ratEq(t, res.X[1], 1, 1)
}

func TestInfeasibleSystem(t *testing.T) {
	// x + y = 1, x + y = 2 is inconsistent.
	res, err := Solve(2, [][]int{{0, 1}, {0, 1}}, ints(1, 2), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Feasible {
		t.Error("system should be infeasible")
	}
}

func TestInfeasibleByNonNegativity(t *testing.T) {
	// x = -1 with x ≥ 0.
	res, err := Solve(1, [][]int{{0}}, ints(-1), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Feasible {
		t.Error("x = -1 should be infeasible under x ≥ 0")
	}
}

func TestNegativeRHSHandled(t *testing.T) {
	// A negative row is negated so the artificial basis starts feasible.
	// Over 0/1 columns and x ≥ 0 it can never be met, so x0 + x1 = 2,
	// x1 = -5/2 must come back infeasible — not an error, and not
	// unbounded under an objective that rewards x0.
	b := []*big.Rat{big.NewRat(2, 1), big.NewRat(-5, 2)}
	for _, c := range [][]int64{nil, {-1, 0}} {
		res, err := Solve(2, [][]int{{0}, {0, 1}}, b, c)
		if err != nil {
			t.Fatal(err)
		}
		if res.Feasible || res.Unbounded {
			t.Errorf("c=%v: status %+v, want infeasible", c, res)
		}
	}
}

func TestMinimization(t *testing.T) {
	// min x + 2y s.t. x + y = 4 → x = 4, y = 0, value 4.
	res, err := Solve(1, [][]int{{0}, {0}}, ints(4), []int64{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Feasible || res.Unbounded {
		t.Fatalf("unexpected status %+v", res)
	}
	ratEq(t, res.Value, 4, 1)
	ratEq(t, res.X[0], 4, 1)
}

func TestMinimizationPrefersCheaperColumn(t *testing.T) {
	// min 3x + y s.t. x + y = 4 → y = 4, value 4.
	res, err := Solve(1, [][]int{{0}, {0}}, ints(4), []int64{3, 1})
	if err != nil {
		t.Fatal(err)
	}
	ratEq(t, res.Value, 4, 1)
	ratEq(t, res.X[1], 4, 1)
}

func TestUnbounded(t *testing.T) {
	// min -y s.t. x = 1, where y's column lists no rows: y grows freely.
	res, err := Solve(1, [][]int{{0}, {}}, ints(1), []int64{0, -1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Feasible || !res.Unbounded {
		t.Fatalf("expected unbounded, got %+v", res)
	}
	if res.Value != nil {
		t.Errorf("unbounded value %v, want nil", res.Value)
	}
	ratEq(t, res.X[0], 1, 1)
}

func TestRationalSolution(t *testing.T) {
	// The triangle x0 + x1 = x1 + x2 = x0 + x2 = 1 has the unique
	// solution x = 1/2: integral data, a fractional vertex.
	res, err := Solve(3, [][]int{{0, 2}, {0, 1}, {1, 2}}, ints(1, 1, 1), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Feasible {
		t.Fatal("triangle should be feasible")
	}
	for j := range res.X {
		ratEq(t, res.X[j], 1, 2)
	}
}

func TestRedundantConstraints(t *testing.T) {
	// Three copies of x + y = 2 stay feasible (degenerate basis
	// handling), and phase 2 still optimizes over the redundant rows.
	cols := [][]int{{0, 1, 2}, {0, 1, 2}}
	res, err := Solve(3, cols, ints(2, 2, 2), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Feasible {
		t.Error("redundant system should be feasible")
	}
	res, err = Solve(3, cols, ints(2, 2, 2), []int64{2, 1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Feasible || res.Unbounded {
		t.Fatalf("status %+v", res)
	}
	ratEq(t, res.Value, 2, 1)
	ratEq(t, res.X[1], 2, 1)
}

func TestZeroRHS(t *testing.T) {
	res, err := Solve(1, [][]int{{0}, {0}}, ints(0), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Feasible {
		t.Fatal("should be feasible with x = 0")
	}
	if res.X[0].Sign() != 0 || res.X[1].Sign() != 0 {
		t.Errorf("expected zero solution, got %v", res.X)
	}
}

func TestInputValidation(t *testing.T) {
	cols := [][]int{{0}}
	if _, err := Solve(0, nil, nil, nil); err == nil {
		t.Error("expected error for empty system")
	}
	if _, err := Solve(1, cols, ints(1, 2), nil); err == nil {
		t.Error("expected b-length error")
	}
	if _, err := Solve(1, cols, []*big.Rat{nil}, nil); err == nil {
		t.Error("expected nil-entry error")
	}
	if _, err := Solve(1, cols, ints(1), []int64{1, 2}); err == nil {
		t.Error("expected c-length error")
	}
}

func TestSolveSparse(t *testing.T) {
	// Two rows; columns {0}, {1}, {0,1}: x1 + x3 = 2, x2 + x3 = 2.
	res, err := Solve(2, [][]int{{0}, {1}, {0, 1}}, ints(2, 2), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Feasible {
		t.Fatal("should be feasible")
	}
	// Verify the returned point satisfies the constraints.
	sum0 := new(big.Rat).Add(res.X[0], res.X[2])
	sum1 := new(big.Rat).Add(res.X[1], res.X[2])
	if sum0.Cmp(big.NewRat(2, 1)) != 0 || sum1.Cmp(big.NewRat(2, 1)) != 0 {
		t.Errorf("solution %v violates constraints", res.X)
	}
}

func TestSolveSparseValidation(t *testing.T) {
	if _, err := Solve(2, [][]int{{5}}, ints(1, 1), nil); err == nil {
		t.Error("expected row-range error")
	}
	if _, err := Solve(2, [][]int{{-1}}, ints(1, 1), nil); err == nil {
		t.Error("expected negative-row error")
	}
}

func TestSolutionsAreAlwaysNonNegativeAndExact(t *testing.T) {
	// Random systems feasible by construction (b = Ax for a rational
	// x ≥ 0): the solver must say feasible and return a point that
	// satisfies Ax = b exactly with x ≥ 0.
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 80; trial++ {
		m := 1 + rng.Intn(3)
		cols := make([][]int, 1+rng.Intn(4))
		b := make([]*big.Rat, m)
		for i := range b {
			b[i] = new(big.Rat)
		}
		for j := range cols {
			x := big.NewRat(int64(rng.Intn(5)), int64(1+rng.Intn(3)))
			for i := 0; i < m; i++ {
				if rng.Intn(2) == 0 {
					cols[j] = append(cols[j], i)
					b[i].Add(b[i], x)
				}
			}
		}
		res, err := Solve(m, cols, b, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Feasible {
			t.Fatalf("trial %d: feasible-by-construction system reported infeasible (cols=%v b=%v)", trial, cols, b)
		}
		lhs := make([]*big.Rat, m)
		for i := range lhs {
			lhs[i] = new(big.Rat)
		}
		for j, rows := range cols {
			if res.X[j].Sign() < 0 {
				t.Fatalf("negative coordinate in %v", res.X)
			}
			for _, i := range rows {
				lhs[i].Add(lhs[i], res.X[j])
			}
		}
		for i := range lhs {
			if lhs[i].Cmp(b[i]) != 0 {
				t.Fatalf("row %d: Ax=%v, b=%v, x=%v", i, lhs[i], b[i], res.X)
			}
		}
	}
}

func TestOptimalValueMatchesBruteForceOnAssignment(t *testing.T) {
	// Transportation-style LP with a known integral optimum:
	// supplies 3 and 2 to demands 4 and 1 with costs 1,5,2,1.
	// Variables x11,x12,x21,x22. Rows: supply1, supply2, demand1, demand2.
	cols := [][]int{{0, 2}, {0, 3}, {1, 2}, {1, 3}}
	res, err := Solve(4, cols, ints(3, 2, 4, 1), []int64{1, 5, 2, 1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Feasible || res.Unbounded {
		t.Fatalf("status %+v", res)
	}
	// Optimum ships x11=3, x21=1, x22=1: cost 3+2+1=6.
	ratEq(t, res.Value, 6, 1)
}

func TestEmptyAndDegenerate(t *testing.T) {
	if res, err := Solve(2, nil, ints(0, 0), nil); err != nil || !res.Feasible || len(res.X) != 0 {
		t.Fatalf("no columns, zero rhs: %+v err=%v, want feasible with empty X", res, err)
	}
	if res, err := Solve(2, nil, ints(0, 1), nil); err != nil || res.Feasible {
		t.Fatalf("no columns, nonzero rhs: %+v err=%v, want infeasible", res, err)
	}
	if res, err := Solve(1, nil, ints(0), []int64{}); err != nil || !res.Feasible || res.Value.Sign() != 0 {
		t.Fatalf("no columns, empty objective: %+v err=%v, want value 0", res, err)
	}
	if _, err := Solve(0, nil, nil, nil); err == nil {
		t.Fatal("m=0 should error")
	}
	if _, err := Solve(2, [][]int{{7}}, ints(1, 0), nil); err == nil {
		t.Fatal("out-of-range row should error")
	}
}
