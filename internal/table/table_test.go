package table

import (
	"math/rand"
	"runtime/debug"
	"sort"
	"testing"
)

func TestDictInternLookup(t *testing.T) {
	d := NewDict()
	if _, ok := d.Lookup("x"); ok {
		t.Fatal("empty dict claims to hold x")
	}
	ids := map[string]uint32{}
	for i, v := range []string{"x", "y", "", "x", "z", "y"} {
		id := d.Intern(v)
		if prev, seen := ids[v]; seen {
			if id != prev {
				t.Fatalf("step %d: Intern(%q) = %d, want stable %d", i, v, id, prev)
			}
		} else {
			ids[v] = id
		}
	}
	if d.Len() != 4 {
		t.Fatalf("Len = %d, want 4", d.Len())
	}
	for v, id := range ids {
		if got := d.Value(id); got != v {
			t.Fatalf("Value(%d) = %q, want %q", id, got, v)
		}
		if got, ok := d.Lookup(v); !ok || got != id {
			t.Fatalf("Lookup(%q) = %d,%v, want %d", v, got, ok, id)
		}
	}
	snap := d.Snapshot()
	if len(snap) != 4 || snap[0] != "x" {
		t.Fatalf("Snapshot = %v", snap)
	}
	c := d.Clone()
	d.Intern("only-in-original")
	if _, ok := c.Lookup("only-in-original"); ok {
		t.Fatal("clone shares state with original")
	}
}

func TestRemap(t *testing.T) {
	a, b := NewDict(), NewDict()
	for _, v := range []string{"p", "q", "r"} {
		a.Intern(v)
	}
	b.Intern("r")
	b.Intern("p")
	m := Remap(a, b)
	if m[a.mustID(t, "p")] != b.mustID(t, "p") || m[a.mustID(t, "r")] != b.mustID(t, "r") {
		t.Fatalf("remap = %v", m)
	}
	if m[a.mustID(t, "q")] != MissingID {
		t.Fatalf("missing value not flagged: %v", m)
	}
}

func (d *Dict) mustID(t *testing.T, v string) uint32 {
	t.Helper()
	id, ok := d.Lookup(v)
	if !ok {
		t.Fatalf("dict missing %q", v)
	}
	return id
}

func TestIndexFindInsert(t *testing.T) {
	rs := &Rows{W: 2}
	ix := NewIndex(0)
	rng := rand.New(rand.NewSource(3))
	type key [2]uint32
	seen := map[key]int{}
	for i := 0; i < 2000; i++ {
		row := []uint32{uint32(rng.Intn(50)), uint32(rng.Intn(50))}
		k := key{row[0], row[1]}
		pos := ix.Find(rs, row)
		if want, ok := seen[k]; ok {
			if pos != want {
				t.Fatalf("Find(%v) = %d, want %d", row, pos, want)
			}
			continue
		}
		if pos != -1 {
			t.Fatalf("Find(%v) = %d for absent row", row, pos)
		}
		p := rs.Append(row, 1)
		ix.Insert(rs, p)
		seen[k] = p
	}
	if len(seen) != rs.N() {
		t.Fatalf("rows %d, want %d", rs.N(), len(seen))
	}
}

func TestIndexZeroWidth(t *testing.T) {
	rs := &Rows{W: 0}
	ix := NewIndex(0)
	if pos := ix.Find(rs, nil); pos != -1 {
		t.Fatalf("empty zero-width index Find = %d", pos)
	}
	p := rs.Append(nil, 7)
	ix.Insert(rs, p)
	if pos := ix.Find(rs, nil); pos != 0 {
		t.Fatalf("zero-width Find = %d, want 0", pos)
	}
}

func TestSortPermMatchesComparator(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 30; trial++ {
		w := 1 + rng.Intn(4)
		n := rng.Intn(500)
		rs := &Rows{W: w}
		wide := rng.Intn(2) == 0
		for i := 0; i < n; i++ {
			row := make([]uint32, w)
			for j := range row {
				if wide {
					row[j] = rng.Uint32() >> uint(rng.Intn(16)) // exercise >16-bit ids
				} else {
					row[j] = uint32(rng.Intn(9))
				}
			}
			rs.Append(row, 1)
		}
		perm := make([]int32, n)
		SortPerm(rs, perm)
		want := make([]int32, n)
		for i := range want {
			want[i] = int32(i)
		}
		sort.SliceStable(want, func(a, b int) bool {
			return lessRow(rs, int(want[a]), int(want[b]))
		})
		for i := range perm {
			if perm[i] != want[i] {
				t.Fatalf("trial %d (n=%d w=%d wide=%v): perm[%d] = %d, want %d",
					trial, n, w, wide, i, perm[i], want[i])
			}
		}
	}
}

// TestSortPermSmallMatchesSliceStable holds the below-cutoff path to
// sort.SliceStable on rows with many repeats, at every size from 0 to 40
// (both sides of smallSortCutoff).
func TestSortPermSmallMatchesSliceStable(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for n := 0; n <= 40; n++ {
		for trial := 0; trial < 20; trial++ {
			w := 1 + rng.Intn(3)
			rs := &Rows{W: w}
			row := make([]uint32, w)
			for i := 0; i < n; i++ {
				for j := range row {
					row[j] = uint32(rng.Intn(3))
				}
				rs.Append(row, 1)
			}
			perm := make([]int32, n)
			SortPerm(rs, perm)
			want := make([]int32, n)
			for i := range want {
				want[i] = int32(i)
			}
			sort.SliceStable(want, func(a, b int) bool {
				return lessRow(rs, int(want[a]), int(want[b]))
			})
			for i := range perm {
				if perm[i] != want[i] {
					t.Fatalf("n=%d w=%d trial %d: perm = %v, want %v", n, w, trial, perm, want)
				}
			}
		}
	}
}

// TestSortPermSmallAllocatesNothing: below smallSortCutoff SortPerm
// sorts in place, with no closure or pooled scratch.
func TestSortPermSmallAllocatesNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, n := range []int{5, 11} {
		rs := &Rows{W: 2}
		for i := 0; i < n; i++ {
			rs.Append([]uint32{uint32(rng.Intn(4)), uint32(rng.Intn(4))}, 1)
		}
		perm := make([]int32, n)
		if allocs := testing.AllocsPerRun(100, func() { SortPerm(rs, perm) }); allocs != 0 {
			t.Errorf("SortPerm of %d rows allocates %.0f times, want 0", n, allocs)
		}
	}
}

func TestRuns(t *testing.T) {
	rs := &Rows{W: 1}
	for _, v := range []uint32{4, 4, 1, 4, 1, 9} {
		rs.Append([]uint32{v}, 1)
	}
	perm := make([]int32, rs.N())
	SortPerm(rs, perm)
	var runs [][2]int
	Runs(rs, perm, func(a, b int) { runs = append(runs, [2]int{a, b}) })
	want := [][2]int{{0, 2}, {2, 5}, {5, 6}} // 1,1 | 4,4,4 | 9
	if len(runs) != len(want) {
		t.Fatalf("runs = %v, want %v", runs, want)
	}
	for i := range want {
		if runs[i] != want[i] {
			t.Fatalf("runs = %v, want %v", runs, want)
		}
	}
}

// TestPoolWarmCycleAllocatesNothing: once a pool holds a buffer large
// enough, a Get/Put cycle reuses both the buffer and the slice header
// the pool keeps it in. The GC is off so the pools are not emptied
// mid-measurement.
func TestPoolWarmCycleAllocatesNothing(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for name, cycle := range map[string]func(){
		"int32":  func() { PutInt32s(GetInt32s(100)) },
		"uint32": func() { PutUint32s(GetUint32s(100)) },
		"int64":  func() { PutInt64s(GetInt64s(100)) },
		"uint64": func() { PutUint64s(GetUint64s(100)) },
	} {
		cycle()
		if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
			t.Errorf("%s: a warm Get/Put cycle allocates %.0f times, want 0", name, allocs)
		}
	}
}
