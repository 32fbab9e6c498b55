package ilp_test

import (
	"testing"

	"bagconsistency/internal/ilp"
)

// decodeProblem builds a small well-formed Problem from arbitrary fuzz
// bytes: byte 0 picks the row count, byte 1 the column count, then one
// row-membership bitmask per column and one right-hand-side byte per row.
// Every decode is valid by construction so the fuzzer spends its budget
// in the search, not in validate.
func decodeProblem(data []byte) *ilp.Problem {
	if len(data) < 2 {
		return nil
	}
	m := 1 + int(data[0])%4
	ncols := int(data[1]) % 8
	pos := 2
	var cols [][]int
	for j := 0; j < ncols && pos < len(data); j++ {
		mask := int(data[pos]) % (1 << m)
		pos++
		if mask == 0 {
			mask = 1 // every column must touch a row
		}
		var rows []int
		for r := 0; r < m; r++ {
			if mask&(1<<r) != 0 {
				rows = append(rows, r)
			}
		}
		cols = append(cols, rows)
	}
	b := make([]int64, m)
	for i := 0; i < m; i++ {
		if pos < len(data) {
			b[i] = int64(data[pos]) % 16
			pos++
		}
	}
	return &ilp.Problem{M: m, Cols: cols, B: b}
}

// FuzzSolve asserts the solver's safety contract on arbitrary small
// programs: no panics, the deterministic walk matches the clone oracle
// (verdict, witness, node count, errors and enumeration order), and
// Solve's full schedule returns the oracle's verdict within the node
// budget, with a witness that verifies exactly.
func FuzzSolve(f *testing.F) {
	// Degenerate corpus: empty program, single variable, infeasible at
	// the root, and a multi-row system with shared columns.
	f.Add([]byte{0, 0})                             // 1 row, no columns, b = 0
	f.Add([]byte{0, 0, 5})                          // 1 row, no columns, b = 5: infeasible at root
	f.Add([]byte{0, 1, 1, 3})                       // single variable x = 3
	f.Add([]byte{2, 3, 1, 2, 3, 7, 7, 9})           // 3 rows, shared columns
	f.Add([]byte{1, 2, 3, 3, 4, 9})                 // duplicated columns
	f.Add([]byte{3, 7, 1, 2, 4, 8, 3, 5, 15, 6, 6}) // 4 rows, denser mix
	f.Fuzz(func(t *testing.T, data []byte) {
		p := decodeProblem(data)
		if p == nil {
			return
		}
		matchOracle(t, "fuzz", p)
	})
}
