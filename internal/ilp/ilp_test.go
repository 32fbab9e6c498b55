package ilp

import (
	"errors"
	"math/rand"
	"testing"
)

func TestSimpleFeasible(t *testing.T) {
	// x0 + x2 = 2, x1 + x2 = 2.
	p := &Problem{M: 2, Cols: [][]int{{0}, {1}, {0, 1}}, B: []int64{2, 2}}
	sol, err := Solve(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !sol.Feasible {
		t.Fatal("should be feasible")
	}
	if !p.Verify(sol.X) {
		t.Fatalf("solution %v does not verify", sol.X)
	}
}

func TestSimpleInfeasible(t *testing.T) {
	// x0 = 1 and x0 = 2 simultaneously.
	p := &Problem{M: 2, Cols: [][]int{{0, 1}}, B: []int64{1, 2}}
	sol, err := Solve(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Feasible {
		t.Error("should be infeasible")
	}
}

func TestZeroRHS(t *testing.T) {
	p := &Problem{M: 2, Cols: [][]int{{0}, {1}, {0, 1}}, B: []int64{0, 0}}
	sol, err := Solve(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !sol.Feasible {
		t.Fatal("zero system should be feasible")
	}
	for _, v := range sol.X {
		if v != 0 {
			t.Errorf("expected all-zero solution, got %v", sol.X)
		}
	}
}

func TestValidation(t *testing.T) {
	cases := []*Problem{
		{M: 0, Cols: nil, B: nil},
		{M: 1, Cols: [][]int{{0}}, B: []int64{1, 2}},
		{M: 1, Cols: [][]int{{0}}, B: []int64{-1}},
		{M: 1, Cols: [][]int{{}}, B: []int64{1}},
		{M: 1, Cols: [][]int{{3}}, B: []int64{1}},
	}
	for i, p := range cases {
		if _, err := Solve(p, Options{}); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
}

func TestVerify(t *testing.T) {
	p := &Problem{M: 2, Cols: [][]int{{0}, {1}, {0, 1}}, B: []int64{2, 3}}
	if !p.Verify([]int64{1, 2, 1}) {
		t.Error("valid solution rejected")
	}
	if p.Verify([]int64{2, 2, 1}) {
		t.Error("invalid solution accepted")
	}
	if p.Verify([]int64{1, 2}) {
		t.Error("wrong-length solution accepted")
	}
	if p.Verify([]int64{-1, 4, 1}) {
		t.Error("negative solution accepted")
	}
}

func TestCountSolutions(t *testing.T) {
	// x0 + x1 = 2 has 3 solutions: (0,2), (1,1), (2,0).
	p := &Problem{M: 1, Cols: [][]int{{0}, {0}}, B: []int64{2}}
	n, err := Count(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Errorf("count = %d, want 3", n)
	}
}

func TestCountContingency2x2(t *testing.T) {
	// 2x2 contingency tables with all margins 1: x00+x01=1, x10+x11=1,
	// x00+x10=1, x01+x11=1 → exactly 2 solutions (the two permutation
	// matrices).
	p := &Problem{
		M: 4,
		Cols: [][]int{
			{0, 2}, // x00
			{0, 3}, // x01
			{1, 2}, // x10
			{1, 3}, // x11
		},
		B: []int64{1, 1, 1, 1},
	}
	n, err := Count(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Errorf("count = %d, want 2", n)
	}
}

func TestEnumerateEarlyStop(t *testing.T) {
	p := &Problem{M: 1, Cols: [][]int{{0}, {0}}, B: []int64{5}}
	stop := errors.New("stop")
	seen := 0
	err := Enumerate(p, Options{}, func(x []int64) error {
		seen++
		if seen == 2 {
			return stop
		}
		return nil
	})
	if !errors.Is(err, stop) {
		t.Errorf("err = %v, want stop sentinel", err)
	}
	if seen != 2 {
		t.Errorf("saw %d solutions before stop", seen)
	}
}

func TestEnumerateDeterministic(t *testing.T) {
	p := &Problem{M: 1, Cols: [][]int{{0}, {0}}, B: []int64{2}}
	var runs [2][][]int64
	for r := 0; r < 2; r++ {
		_ = Enumerate(p, Options{}, func(x []int64) error {
			runs[r] = append(runs[r], append([]int64(nil), x...))
			return nil
		})
	}
	if len(runs[0]) != len(runs[1]) {
		t.Fatal("different solution counts across runs")
	}
	for i := range runs[0] {
		for j := range runs[0][i] {
			if runs[0][i][j] != runs[1][i][j] {
				t.Fatal("enumeration order not deterministic")
			}
		}
	}
}

func TestNodeLimit(t *testing.T) {
	// A system with a big search space and a tiny budget.
	p := &Problem{
		M:    3,
		Cols: [][]int{{0}, {0}, {1}, {1}, {2}, {2}, {0, 1}, {1, 2}, {0, 2}},
		B:    []int64{50, 50, 50},
	}
	_, err := Count(p, Options{MaxNodes: 10})
	if !errors.Is(err, ErrNodeLimit) {
		t.Errorf("err = %v, want ErrNodeLimit", err)
	}
}

func TestAgainstBruteForceProperty(t *testing.T) {
	// Exhaustive cross-check on tiny systems: enumerate all assignments with
	// entries ≤ max(B) and compare the solution count.
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 50; trial++ {
		m := 1 + rng.Intn(3)
		ncols := 1 + rng.Intn(4)
		cols := make([][]int, ncols)
		for j := range cols {
			seen := map[int]bool{}
			k := 1 + rng.Intn(m)
			for len(seen) < k {
				seen[rng.Intn(m)] = true
			}
			for r := range seen {
				cols[j] = append(cols[j], r)
			}
		}
		b := make([]int64, m)
		var maxB int64
		for i := range b {
			b[i] = int64(rng.Intn(4))
			if b[i] > maxB {
				maxB = b[i]
			}
		}
		p := &Problem{M: m, Cols: cols, B: b}

		// Brute force.
		var brute int64
		x := make([]int64, ncols)
		var rec func(j int)
		rec = func(j int) {
			if j == ncols {
				if p.Verify(x) {
					brute++
				}
				return
			}
			for v := int64(0); v <= maxB; v++ {
				x[j] = v
				rec(j + 1)
			}
		}
		rec(0)

		got, err := Count(p, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if got != brute {
			t.Fatalf("trial %d: Count=%d brute=%d (cols=%v b=%v)", trial, got, brute, cols, b)
		}
	}
}

func TestSolutionAlwaysVerifiesProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 60; trial++ {
		m := 1 + rng.Intn(4)
		ncols := 1 + rng.Intn(6)
		cols := make([][]int, ncols)
		for j := range cols {
			seen := map[int]bool{}
			k := 1 + rng.Intn(m)
			for len(seen) < k {
				seen[rng.Intn(m)] = true
			}
			for r := range seen {
				cols[j] = append(cols[j], r)
			}
		}
		b := make([]int64, m)
		for i := range b {
			b[i] = int64(rng.Intn(8))
		}
		p := &Problem{M: m, Cols: cols, B: b}
		sol, err := Solve(p, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if sol.Feasible && !p.Verify(sol.X) {
			t.Fatalf("trial %d: solution %v does not verify", trial, sol.X)
		}
	}
}
