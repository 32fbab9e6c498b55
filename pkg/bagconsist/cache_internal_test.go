package bagconsist

import (
	"strings"
	"testing"

	"bagconsistency/internal/bag"
	"bagconsistency/internal/canon"
)

// TestCachedWitnessChecks: rebuilding a cached witness in id space keeps
// every check the string translation made — indices in range, counts
// non-negative — and, as Add did, drops zero counts and sums repeated
// rows.
func TestCachedWitnessChecks(t *testing.T) {
	r := bag.New(bag.MustSchema("A", "B"))
	s := bag.New(bag.MustSchema("B"))
	for _, row := range [][]string{{"a1", "b"}, {"a2", "b"}} {
		if err := r.Add(row, 1); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Add([]string{"b"}, 2); err != nil {
		t.Fatal(err)
	}
	can, err := canon.Pair(r, s)
	if err != nil {
		t.Fatal(err)
	}
	witness := func(rows ...cachedRow) (*bag.Bag, error) {
		cr := &cachedResult{witnessAttrs: []string{"A", "B"}, witnessRows: rows}
		return cr.witness(can)
	}
	w, err := witness(
		cachedRow{indices: []int{0, 0}, count: 2},
		cachedRow{indices: []int{1, 0}, count: 0},
		cachedRow{indices: []int{0, 0}, count: 3},
	)
	if err != nil {
		t.Fatal(err)
	}
	if w.Len() != 1 {
		t.Fatalf("witness has %d rows, want 1 (zero count dropped, repeats summed)", w.Len())
	}
	if got := w.Tuples()[0]; w.CountTuple(got) != 5 {
		t.Fatalf("summed count %d, want 5", w.CountTuple(got))
	}
	for _, tc := range []struct {
		name string
		row  cachedRow
		want string
	}{
		{"index out of range", cachedRow{indices: []int{2, 0}, count: 1}, "out of range"},
		{"negative index", cachedRow{indices: []int{-1, 0}, count: 1}, "out of range"},
		{"zero count out of range", cachedRow{indices: []int{0, 7}, count: 0}, "out of range"},
		{"negative count", cachedRow{indices: []int{0, 0}, count: -1}, "negative multiplicity"},
		{"short row", cachedRow{indices: []int{0}, count: 1}, "indices"},
	} {
		if _, err := witness(tc.row); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want one mentioning %q", tc.name, err, tc.want)
		}
	}
}
