// Package lp implements one exact simplex solver over rational arithmetic
// (math/big.Rat) for the 0/1 equality systems the engine builds, given
// column-wise — cols[j] lists the rows in which variable j has
// coefficient 1:
//
//	minimize c·x  subject to  Σ_{j : i ∈ cols[j]} x_j = b_i for every row i, x ≥ 0.
//
// These are the programs P(R1,...,Rm) of the paper (Equation 14), whose
// columns have exactly one 1 per input bag, and the paper uses linear
// programming only over them: statement (3) of Lemma 2 characterizes
// two-bag consistency as rational feasibility of P(R,S), and Section 3
// observes that any LP algorithm can also minimize a linear function of
// the witnessing multiplicities. The relaxed consistency of [AK20] is
// rational feasibility of the same program with each bag's right-hand
// side divided by that bag's total, hence the rational right-hand side.
// Exact rational pivoting with Bland's anti-cycling rule makes every
// answer certain rather than floating-point approximate.
package lp

import (
	"fmt"
	"math/big"
)

// Result reports the outcome of a Solve call.
type Result struct {
	// Feasible is true when the constraints admit a solution.
	Feasible bool
	// Unbounded is true when the objective is unbounded below over a
	// non-empty feasible region.
	Unbounded bool
	// X is an optimal (or, if Unbounded, feasible) solution with one entry
	// per column, nil when infeasible.
	X []*big.Rat
	// Value is c·X (zero without an objective), nil when infeasible or
	// unbounded.
	Value *big.Rat
}

// Solve minimizes c·x over Σ_{j : i ∈ cols[j]} x_j = b[i] for i in
// [0,m), x ≥ 0, with exact arithmetic. b may hold rationals of any sign.
// A column listing no rows leaves its variable unconstrained above, which
// is how an objective becomes unbounded. c may be nil for a pure
// feasibility check. The inputs are not modified.
//
// Phase 1 runs Bland's rule from the artificial basis. With an objective,
// the artificial variables left basic at zero are driven out and phase 2
// runs Bland's rule over the real columns.
func Solve(m int, cols [][]int, b []*big.Rat, c []int64) (*Result, error) {
	n := len(cols)
	if m <= 0 {
		return nil, fmt.Errorf("lp: need at least one row")
	}
	if len(b) != m {
		return nil, fmt.Errorf("lp: b has %d entries, want %d", len(b), m)
	}
	for i, v := range b {
		if v == nil {
			return nil, fmt.Errorf("lp: b[%d] is nil", i)
		}
	}
	if c != nil && len(c) != n {
		return nil, fmt.Errorf("lp: c has %d entries, want %d", len(c), n)
	}
	tb, err := newTableau(m, cols, b)
	if err != nil {
		return nil, err
	}
	if !tb.simplex(n + m) {
		return nil, fmt.Errorf("lp: phase-1 objective unbounded (internal error)")
	}
	if tb.t[m][tb.rhs].Sign() != 0 {
		// Optimal phase-1 value -rhs > 0: infeasible.
		return &Result{Feasible: false}, nil
	}
	if c != nil {
		tb.driveOutArtificials()
		tb.phase2Objective(c)
		if !tb.simplex(n) {
			return &Result{Feasible: true, Unbounded: true, X: tb.solution()}, nil
		}
	}
	// The objective row's right-hand side is minus the objective value:
	// zero at a feasible phase-1 optimum, -c·x after phase 2.
	value := new(big.Rat).Neg(&tb.t[m][tb.rhs])
	return &Result{Feasible: true, X: tb.solution(), Value: value}, nil
}

// tableau is the dense simplex tableau: m constraint rows and then the
// objective row, each over the n real columns, the m artificial columns
// n..n+m-1, and the right-hand side at index rhs. All cells share one
// backing array and are updated in place.
type tableau struct {
	m, n, rhs int
	t         [][]big.Rat
	basis     []int // basic column per constraint row
	nz        []int // scratch: nonzero positions of the pivot row
	// Scratch rationals, reused across pivots and ratio tests.
	f, tmp, ratio, best big.Rat
}

// newTableau builds the phase-1 tableau with one artificial variable per
// row. Rows with a negative right-hand side are negated, so the
// artificial basis starts primal-feasible; the objective row minimizes
// the sum of artificials, priced out over the starting basis.
func newTableau(m int, cols [][]int, b []*big.Rat) (*tableau, error) {
	n := len(cols)
	width := n + m + 1
	tb := &tableau{
		m: m, n: n, rhs: width - 1,
		t:     make([][]big.Rat, m+1),
		basis: make([]int, m),
	}
	cells := make([]big.Rat, (m+1)*width)
	for i := range tb.t {
		tb.t[i] = cells[i*width : (i+1)*width : (i+1)*width]
	}
	for j, rows := range cols {
		for _, i := range rows {
			if i < 0 || i >= m {
				return nil, fmt.Errorf("lp: column %d references row %d outside [0,%d)", j, i, m)
			}
			tb.t[i][j].SetInt64(1)
		}
	}
	obj := tb.t[m]
	for i := 0; i < m; i++ {
		row := tb.t[i]
		if b[i].Sign() < 0 {
			for j := 0; j < n; j++ {
				row[j].Neg(&row[j])
			}
			row[tb.rhs].Neg(b[i])
		} else {
			row[tb.rhs].Set(b[i])
		}
		row[n+i].SetInt64(1)
		tb.basis[i] = n + i
		for j := 0; j < n; j++ {
			if row[j].Sign() != 0 {
				obj[j].Sub(&obj[j], &row[j])
			}
		}
		obj[tb.rhs].Sub(&obj[tb.rhs], &row[tb.rhs])
	}
	return tb, nil
}

// pivot makes col basic in row: it scales the pivot row to a unit entry
// and eliminates col from every other row, touching only the pivot row's
// nonzero positions.
func (tb *tableau) pivot(row, col int) {
	pr := tb.t[row]
	tb.f.Inv(&pr[col])
	tb.nz = tb.nz[:0]
	for j := range pr {
		if pr[j].Sign() != 0 {
			pr[j].Mul(&pr[j], &tb.f)
			tb.nz = append(tb.nz, j)
		}
	}
	for i, ti := range tb.t {
		if i == row || ti[col].Sign() == 0 {
			continue
		}
		tb.f.Set(&ti[col])
		for _, j := range tb.nz {
			tb.tmp.Mul(&tb.f, &pr[j])
			ti[j].Sub(&ti[j], &tb.tmp)
		}
	}
	tb.basis[row] = col
}

// leaving runs Bland's ratio test for entering column col: the row with
// the least ratio, ties broken by the smallest basic column. It returns
// -1 when no entry of col is positive.
func (tb *tableau) leaving(col int) int {
	row := -1
	for i := 0; i < tb.m; i++ {
		ti := tb.t[i]
		if ti[col].Sign() <= 0 {
			continue
		}
		tb.ratio.Quo(&ti[tb.rhs], &ti[col])
		if row >= 0 {
			cmp := tb.ratio.Cmp(&tb.best)
			if cmp > 0 || (cmp == 0 && tb.basis[i] > tb.basis[row]) {
				continue
			}
		}
		row = i
		tb.best.Set(&tb.ratio)
	}
	return row
}

// simplex pivots by Bland's rule over columns [0,ncols) until no reduced
// cost is negative. It reports false when the entering column has no
// positive entry: the objective is unbounded below.
func (tb *tableau) simplex(ncols int) bool {
	obj := tb.t[tb.m]
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
		row := tb.leaving(col)
		if row < 0 {
			return false
		}
		tb.pivot(row, col)
	}
}

// driveOutArtificials pivots each artificial variable still basic (at
// zero, after a feasible phase 1) out on any nonzero real column of its
// row. An artificial whose row is zero over the real columns marks a
// redundant constraint; it stays basic at zero, harmless to phase 2.
func (tb *tableau) driveOutArtificials() {
	for i := 0; i < tb.m; i++ {
		if tb.basis[i] < tb.n {
			continue
		}
		for j := 0; j < tb.n; j++ {
			if tb.t[i][j].Sign() != 0 {
				tb.pivot(i, j)
				break
			}
		}
	}
}

// phase2Objective replaces the objective row with c priced out over the
// current basis: obj = c - c_B B⁻¹A, with -c_B·x_B at rhs.
func (tb *tableau) phase2Objective(c []int64) {
	obj := tb.t[tb.m]
	for j := range obj {
		obj[j].SetInt64(0)
	}
	for j, cj := range c {
		obj[j].SetInt64(cj)
	}
	for i, bj := range tb.basis {
		if bj >= tb.n || c[bj] == 0 {
			continue
		}
		tb.f.SetInt64(c[bj])
		ti := tb.t[i]
		for j := range ti {
			if ti[j].Sign() != 0 {
				tb.tmp.Mul(&tb.f, &ti[j])
				obj[j].Sub(&obj[j], &tb.tmp)
			}
		}
	}
}

// solution reads the basic solution off the tableau.
func (tb *tableau) solution() []*big.Rat {
	vals := make([]big.Rat, tb.n)
	x := make([]*big.Rat, tb.n)
	for j := range x {
		x[j] = &vals[j]
	}
	for i, bj := range tb.basis {
		if bj < tb.n {
			vals[bj].Set(&tb.t[i][tb.rhs])
		}
	}
	return x
}
