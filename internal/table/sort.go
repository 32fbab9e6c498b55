package table

import "sort"

// SortPerm fills perm (which must have length rs.N()) with row positions
// ordered lexicographically by the rows' ids, column 0 most significant;
// equal rows stay in position order (the sort is stable). This is the
// sort half of the engine's sort-based group-by: radix passes over dense
// ids, no comparisons against strings.
func SortPerm(rs *Rows, perm []int32) {
	for i := range perm {
		perm[i] = int32(i)
	}
	SortPermOf(rs, perm)
}

// SortPermOf sorts an existing selection of row positions (perm may be a
// subset of the rows, e.g. only the live ones) by row ids, stable.
func SortPermOf(rs *Rows, perm []int32) {
	if rs.W == 0 || len(perm) < 2 {
		return
	}
	if len(perm) < smallSortCutoff {
		sort.SliceStable(perm, func(a, b int) bool {
			return lessRow(rs, int(perm[a]), int(perm[b]))
		})
		return
	}
	// LSD radix: counting passes from the last column to the first keep
	// the order stable, so after the final pass rows are in full
	// lexicographic order.
	maxID := uint32(0)
	for _, v := range rs.IDs {
		if v > maxID {
			maxID = v
		}
	}
	tmp := GetInt32s(len(perm))
	defer PutInt32s(tmp)
	if maxID < radixDirectMax {
		counts := GetInt32s(int(maxID) + 2)
		defer PutInt32s(counts)
		for col := rs.W - 1; col >= 0; col-- {
			countingPass(rs, perm, tmp, counts, col, maxID)
			perm, tmp = tmp, perm
		}
		if rs.W%2 == 1 {
			copy(tmp, perm) // result landed in the scratch backing; move it home
		}
		return
	}
	// Wide dictionaries: two 16-bit passes per column — always an even
	// number of buffer swaps, so the result ends in the caller's perm.
	counts := GetInt32s(1 << 16)
	defer PutInt32s(counts)
	for col := rs.W - 1; col >= 0; col-- {
		countingPass16(rs, perm, tmp, counts, col, 0)
		perm, tmp = tmp, perm
		countingPass16(rs, perm, tmp, counts, col, 16)
		perm, tmp = tmp, perm
	}
}

const (
	// Below this, a comparison sort beats setting up counting buckets.
	smallSortCutoff = 12
	radixDirectMax  = 1 << 16
)

// countingPass stable-sorts perm into out by rs.Row(p)[col] using direct
// counting over ids in [0, maxID].
func countingPass(rs *Rows, perm, out, counts []int32, col int, maxID uint32) {
	n := int(maxID) + 1
	for i := 0; i < n+1; i++ {
		counts[i] = 0
	}
	w := rs.W
	for _, p := range perm {
		counts[rs.IDs[int(p)*w+col]+1]++
	}
	for i := 1; i < n; i++ {
		counts[i] += counts[i-1]
	}
	for _, p := range perm {
		id := rs.IDs[int(p)*w+col]
		out[counts[id]] = p
		counts[id]++
	}
}

// countingPass16 stable-sorts perm into out by a 16-bit digit of the
// column's id.
func countingPass16(rs *Rows, perm, out, counts []int32, col int, shift uint) {
	for i := range counts {
		counts[i] = 0
	}
	w := rs.W
	for _, p := range perm {
		d := (rs.IDs[int(p)*w+col] >> shift) & 0xffff
		counts[d]++
	}
	sum := int32(0)
	for i := range counts {
		c := counts[i]
		counts[i] = sum
		sum += c
	}
	for _, p := range perm {
		d := (rs.IDs[int(p)*w+col] >> shift) & 0xffff
		out[counts[d]] = p
		counts[d]++
	}
}

func lessRow(rs *Rows, a, b int) bool {
	w := rs.W
	x := rs.IDs[a*w : a*w+w]
	y := rs.IDs[b*w : b*w+w]
	for i := 0; i < w; i++ {
		if x[i] != y[i] {
			return x[i] < y[i]
		}
	}
	return false
}

// Runs calls fn(start, end) for every maximal run perm[start:end] of
// equal rows in an already sorted perm. With W == 0 every row is equal:
// one run.
func Runs(rs *Rows, perm []int32, fn func(start, end int)) {
	n := len(perm)
	if n == 0 {
		return
	}
	start := 0
	for i := 1; i < n; i++ {
		if !RowsEqual(rs, int(perm[i-1]), rs, int(perm[i])) {
			fn(start, i)
			start = i
		}
	}
	fn(start, n)
}
