package lp

import (
	"fmt"
	"math/big"
	"math/rand"
	"testing"
)

// solveRat is the differential oracle: a dense two-phase simplex over a
// general rational matrix (m rows, n columns), minimizing c·x over
// Ax = b, x ≥ 0 (c nil for feasibility only). It is the solver this
// package shipped before Solve took over, kept as an independent
// reference: it allocates every cell afresh, pivots without sparsity
// shortcuts, and always drives artificials out. a, b and c are not
// modified.
func solveRat(a [][]*big.Rat, b []*big.Rat, c []*big.Rat) (*Result, error) {
	m := len(a)
	n := len(a[0])

	// Build the phase-1 tableau with one artificial variable per row.
	// Columns: 0..n-1 real, n..n+m-1 artificial, last = rhs.
	width := n + m + 1
	t := make([][]*big.Rat, m+1)
	for i := 0; i <= m; i++ {
		t[i] = make([]*big.Rat, width)
		for j := range t[i] {
			t[i][j] = new(big.Rat)
		}
	}
	for i := 0; i < m; i++ {
		neg := b[i].Sign() < 0
		for j := 0; j < n; j++ {
			if neg {
				t[i][j].Neg(a[i][j])
			} else {
				t[i][j].Set(a[i][j])
			}
		}
		if neg {
			t[i][width-1].Neg(b[i])
		} else {
			t[i][width-1].Set(b[i])
		}
		t[i][n+i].SetInt64(1)
	}
	basis := make([]int, m)
	for i := range basis {
		basis[i] = n + i
	}
	// Phase-1 objective: minimize sum of artificials. Reduced-cost row =
	// -(sum of constraint rows over real columns), rhs = -(sum of rhs).
	obj := t[m]
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			obj[j].Sub(obj[j], t[i][j])
		}
		obj[width-1].Sub(obj[width-1], t[i][width-1])
	}

	pivot := func(row, col int) {
		p := new(big.Rat).Set(t[row][col])
		inv := new(big.Rat).Inv(p)
		for j := 0; j < width; j++ {
			t[row][j].Mul(t[row][j], inv)
		}
		for i := 0; i <= m; i++ {
			if i == row || t[i][col].Sign() == 0 {
				continue
			}
			f := new(big.Rat).Set(t[i][col])
			for j := 0; j < width; j++ {
				tmp := new(big.Rat).Mul(f, t[row][j])
				t[i][j].Sub(t[i][j], tmp)
			}
		}
		basis[row] = col
	}

	// runSimplex pivots with Bland's rule over the allowed columns until no
	// improving column remains. Returns false if unbounded.
	runSimplex := func(ncols int) bool {
		for {
			col := -1
			for j := 0; j < ncols; j++ {
				if obj[j].Sign() < 0 {
					col = j
					break
				}
			}
			if col < 0 {
				return true
			}
			row := -1
			var best *big.Rat
			for i := 0; i < m; i++ {
				if t[i][col].Sign() > 0 {
					ratio := new(big.Rat).Quo(t[i][width-1], t[i][col])
					if row < 0 || ratio.Cmp(best) < 0 ||
						(ratio.Cmp(best) == 0 && basis[i] < basis[row]) {
						row, best = i, ratio
					}
				}
			}
			if row < 0 {
				return false // unbounded
			}
			pivot(row, col)
		}
	}

	if !runSimplex(n + m) {
		return nil, fmt.Errorf("lp: phase-1 objective unbounded (internal error)")
	}
	if obj[width-1].Sign() != 0 {
		// Optimal phase-1 value -rhs > 0: infeasible.
		return &Result{Feasible: false}, nil
	}

	// Drive any artificial variables out of the basis (degenerate rows).
	// A row that is all zeros over real variables is a redundant
	// constraint; its artificial stays basic at value 0, harmless.
	for i := 0; i < m; i++ {
		if basis[i] < n {
			continue
		}
		for j := 0; j < n; j++ {
			if t[i][j].Sign() != 0 {
				pivot(i, j)
				break
			}
		}
	}

	extract := func() []*big.Rat {
		x := make([]*big.Rat, n)
		for j := range x {
			x[j] = new(big.Rat)
		}
		for i, bj := range basis {
			if bj < n {
				x[bj].Set(t[i][width-1])
			}
		}
		return x
	}

	if c == nil {
		return &Result{Feasible: true, X: extract(), Value: new(big.Rat)}, nil
	}

	// Phase 2: rebuild the objective row for c over the current basis:
	// obj = c - c_B B^{-1} A (computed as c_j minus sum over basic rows).
	for j := 0; j < width; j++ {
		obj[j].SetInt64(0)
	}
	for j := 0; j < n; j++ {
		obj[j].Set(c[j])
	}
	for i, bj := range basis {
		if bj >= n || c[bj].Sign() == 0 {
			continue
		}
		f := new(big.Rat).Set(c[bj])
		for j := 0; j < width; j++ {
			tmp := new(big.Rat).Mul(f, t[i][j])
			obj[j].Sub(obj[j], tmp)
		}
	}
	// Forbid artificial columns in phase 2 by restricting to real columns.
	if !runSimplex(n) {
		return &Result{Feasible: true, Unbounded: true, X: extract()}, nil
	}
	x := extract()
	val := new(big.Rat)
	for j := 0; j < n; j++ {
		if c[j].Sign() != 0 && x[j].Sign() != 0 {
			tmp := new(big.Rat).Mul(c[j], x[j])
			val.Add(val, tmp)
		}
	}
	return &Result{Feasible: true, X: x, Value: val}, nil
}

// dense expands a column-form system into the oracle's general matrix
// and rational objective.
func dense(m int, cols [][]int, c []int64) ([][]*big.Rat, []*big.Rat) {
	a := make([][]*big.Rat, m)
	for i := range a {
		a[i] = make([]*big.Rat, len(cols))
		for j := range a[i] {
			a[i][j] = new(big.Rat)
		}
	}
	for j, rows := range cols {
		for _, i := range rows {
			a[i][j].SetInt64(1)
		}
	}
	var cr []*big.Rat
	if c != nil {
		cr = make([]*big.Rat, len(c))
		for j, v := range c {
			cr[j] = big.NewRat(v, 1)
		}
	}
	return a, cr
}

// decodeSystem builds a small column-form system from arbitrary bytes:
// byte 0 picks the row count, byte 1 the column count, then one
// row-membership bitmask per column (0 is an empty column, whose variable
// only an objective can see), one right-hand-side byte per row (low
// nibble minus 2 over 1 + high nibble mod 3: negative, zero, integral and
// fractional values), and an optional objective: a first byte with its
// low bit set, then one cost byte per column in [-2,4], so negative costs
// on empty columns reach the unbounded case. Missing bytes read as zero.
func decodeSystem(data []byte) (int, [][]int, []*big.Rat, []int64) {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		v := data[0]
		data = data[1:]
		return v
	}
	m := 1 + int(next())%5
	n := int(next()) % 9
	cols := make([][]int, n)
	for j := range cols {
		mask := int(next()) % (1 << m)
		for r := 0; r < m; r++ {
			if mask&(1<<r) != 0 {
				cols[j] = append(cols[j], r)
			}
		}
	}
	b := make([]*big.Rat, m)
	for i := range b {
		v := next()
		b[i] = big.NewRat(int64(v&0x0f)-2, int64(v>>4)%3+1)
	}
	var c []int64
	if next()&1 == 1 {
		c = make([]int64, n)
		for j := range c {
			c[j] = int64(next())%7 - 2
		}
	}
	return m, cols, b, c
}

// checkAgainstOracle solves the system and fails unless the answer
// matches the dense oracle on Feasible, Unbounded and Value, with X an
// exact non-negative solution. It returns the oracle's feasibility
// verdict.
func checkAgainstOracle(t *testing.T, m int, cols [][]int, b []*big.Rat, c []int64) bool {
	t.Helper()
	a, cr := dense(m, cols, c)
	want, err := solveRat(a, b, cr)
	if err != nil {
		t.Fatalf("oracle: %v (m=%d cols=%v b=%v c=%v)", err, m, cols, b, c)
	}
	got, err := Solve(m, cols, b, c)
	if err != nil {
		t.Fatalf("%v (m=%d cols=%v b=%v c=%v)", err, m, cols, b, c)
	}
	if msg := disagreement(a, b, c, got, want); msg != "" {
		t.Fatalf("%s (m=%d cols=%v b=%v c=%v)", msg, m, cols, b, c)
	}
	return want.Feasible
}

// disagreement describes how got departs from the oracle's answer or
// from an exact solution of Ax = b, x ≥ 0; "" means it does not.
func disagreement(a [][]*big.Rat, b []*big.Rat, c []int64, got, want *Result) string {
	if got.Feasible != want.Feasible || got.Unbounded != want.Unbounded {
		return fmt.Sprintf("feasible=%v unbounded=%v, oracle feasible=%v unbounded=%v",
			got.Feasible, got.Unbounded, want.Feasible, want.Unbounded)
	}
	if (got.Value == nil) != (want.Value == nil) || (got.Value != nil && got.Value.Cmp(want.Value) != 0) {
		return fmt.Sprintf("value %v, oracle %v", got.Value, want.Value)
	}
	if !got.Feasible {
		if got.X != nil {
			return "infeasible answer carries a solution"
		}
		return ""
	}
	n := len(a[0])
	if len(got.X) != n {
		return fmt.Sprintf("X has %d entries, want %d", len(got.X), n)
	}
	for j, x := range got.X {
		if x.Sign() < 0 {
			return fmt.Sprintf("x[%d] = %v < 0", j, x)
		}
	}
	for i, row := range a {
		lhs := new(big.Rat)
		for j, aij := range row {
			lhs.Add(lhs, new(big.Rat).Mul(aij, got.X[j]))
		}
		if lhs.Cmp(b[i]) != 0 {
			return fmt.Sprintf("row %d: Ax = %v, b = %v (x=%v)", i, lhs, b[i], got.X)
		}
	}
	if c != nil && !got.Unbounded {
		cx := new(big.Rat)
		for j, x := range got.X {
			cx.Add(cx, new(big.Rat).Mul(big.NewRat(c[j], 1), x))
		}
		if cx.Cmp(got.Value) != 0 {
			return fmt.Sprintf("c·X = %v, Value = %v", cx, got.Value)
		}
	}
	return ""
}

// TestSolveAgreesWithDenseOracle cross-checks Solve against the dense
// oracle on seeded random systems: half decoded from random bytes (the
// fuzz target's distribution), half feasible by construction, with b = Ax
// for a random rational x ≥ 0.
func TestSolveAgreesWithDenseOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	data := make([]byte, 24)
	feasible := 0
	const trials = 2000
	for trial := 0; trial < trials; trial++ {
		rng.Read(data)
		m, cols, b, c := decodeSystem(data)
		if trial%2 == 1 {
			for i := range b {
				b[i] = new(big.Rat)
			}
			for _, rows := range cols {
				x := big.NewRat(int64(rng.Intn(5)), int64(1+rng.Intn(2)))
				for _, i := range rows {
					b[i].Add(b[i], x)
				}
			}
		}
		if checkAgainstOracle(t, m, cols, b, c) {
			feasible++
		}
	}
	// Both verdicts must be well represented, or the suite proves little.
	if feasible < trials/4 || feasible > trials*3/4 {
		t.Fatalf("%d of %d systems feasible: distribution too lopsided", feasible, trials)
	}
}

// FuzzSolve holds Solve to the dense oracle on arbitrary small systems.
func FuzzSolve(f *testing.F) {
	f.Add([]byte{0, 0, 0})                            // 1 row, no columns, b = -2
	f.Add([]byte{0, 0, 2})                            // 1 row, no columns, b = 0
	f.Add([]byte{0, 2, 1, 0, 5, 1, 2, 3})             // empty column with cost 1: bounded
	f.Add([]byte{0, 2, 1, 0, 5, 1, 3, 0})             // empty column with cost -2: unbounded
	f.Add([]byte{2, 3, 3, 6, 5, 3, 3, 3, 0})          // triangle, b = 1: x = 1/2 each
	f.Add([]byte{1, 3, 3, 3, 3, 0x14, 0x24, 1, 0, 1}) // fractional right-hand sides
	f.Add([]byte{3, 8, 1, 2, 4, 8, 3, 12, 15, 5, 7, 9, 3, 6, 1, 1, 6, 5, 4, 3, 2, 1, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		m, cols, b, c := decodeSystem(data)
		checkAgainstOracle(t, m, cols, b, c)
	})
}

func TestSolveRatWithRationalCoefficients(t *testing.T) {
	// The oracle on a general matrix the column form cannot express:
	// (1/2)x + (1/3)y = 1, x - y = 0 → x = y = 6/5.
	a := [][]*big.Rat{
		{big.NewRat(1, 2), big.NewRat(1, 3)},
		{big.NewRat(1, 1), big.NewRat(-1, 1)},
	}
	b := []*big.Rat{big.NewRat(1, 1), big.NewRat(0, 1)}
	res, err := solveRat(a, b, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Feasible {
		t.Fatal("should be feasible")
	}
	ratEq(t, res.X[0], 6, 5)
	ratEq(t, res.X[1], 6, 5)
}

func TestSolveRatObjectiveWithRationals(t *testing.T) {
	// The oracle with a rational objective: min (1/4)x + y over x + y = 2
	// puts all mass on x.
	a := [][]*big.Rat{{big.NewRat(1, 1), big.NewRat(1, 1)}}
	b := []*big.Rat{big.NewRat(2, 1)}
	c := []*big.Rat{big.NewRat(1, 4), big.NewRat(1, 1)}
	res, err := solveRat(a, b, c)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Feasible || res.Unbounded {
		t.Fatalf("status %+v", res)
	}
	ratEq(t, res.Value, 1, 2)
	ratEq(t, res.X[0], 2, 1)
}
