package canon

import (
	"fmt"
	"math/bits"
	"math/rand"
	"reflect"
	"slices"
	"strconv"
	"testing"

	"bagconsistency/internal/bag"
	"bagconsistency/internal/table"
)

// referenceMismatch compares Bags with refBags on bags: the fingerprint,
// the canonical value tables of the attributes with values, and every
// IDs entry that is not missing, which must name the reference's value
// at that index. It returns "" when they agree.
func referenceMismatch(bags []*bag.Bag) (string, error) {
	got, err := Bags(bags)
	if err != nil {
		return "", err
	}
	want, err := refBags(bags)
	if err != nil {
		return "", err
	}
	if got.FP != want.FP {
		return fmt.Sprintf("fingerprint %s, reference %s", got.FP, want.FP), nil
	}
	// The reference has no table for an attribute without values.
	values, index := got.values(), got.index()
	for attr, vals := range values {
		if len(vals) == 0 {
			delete(values, attr)
			delete(index, attr)
		}
	}
	if !reflect.DeepEqual(values, want.Values) {
		return fmt.Sprintf("value tables %v, reference %v", values, want.Values), nil
	}
	if !reflect.DeepEqual(index, want.Index) {
		return "index tables differ from the reference", nil
	}
	for attr, vals := range want.Values {
		d, ids := got.IDs(attr)
		if len(ids) != len(vals) {
			return fmt.Sprintf("%q has %d ids for %d values", attr, len(ids), len(vals)), nil
		}
		for rank, id := range ids {
			if id != table.MissingID && d.Value(id) != vals[rank] {
				return fmt.Sprintf("%q index %d maps to %q, want %q", attr, rank, d.Value(id), vals[rank]), nil
			}
		}
	}
	return "", nil
}

// fuzzAttrs is the attribute universe FuzzFingerprint draws schemas from.
var fuzzAttrs = []string{"A", "B", "C", "D", "E"}

// FuzzFingerprint: bags built from the fuzz input must fingerprint as
// refBags does. The first byte gives the number of bags (one to five),
// whether they share one dictionary per attribute (as decoded requests
// do) or each intern on their own (so several dictionaries feed one
// space, and a space's home dictionary can lack some of its values), and
// whether the last bag is instead a marginal of the first, adopting its
// dictionaries. The next byte per bag picks its width (zero to four) and
// first attribute. Every further run of bytes names a bag, one value
// byte per column (six values per attribute) and a count byte: zero
// deletes the row, which leaves its values in the dictionaries, a set
// high bit adds a count near 2^40, and otherwise the byte is the count.
// Row counts of every residue mod 4 reach both the four-row hash loop
// and its tail.
func FuzzFingerprint(f *testing.F) {
	f.Add([]byte{1, 12, 7, 0, 1, 2, 3, 0, 3, 4, 1, 0, 4, 5, 2, 1, 0, 1, 3, 1, 2, 2, 1})
	f.Add([]byte{0x82, 2, 7, 12, 0, 0, 1, 5, 1, 1, 2, 3, 2, 2, 0, 1, 0, 3, 4, 0x81, 1, 0, 0, 2, 2, 3, 0})
	f.Add([]byte{0x43, 9, 12, 7, 0, 0, 1, 2, 3, 1, 0, 1, 2, 1, 5, 2, 0, 1, 0, 0, 2, 3, 1, 0, 3, 4, 7})
	f.Add([]byte{0xc4, 4, 14, 8, 3, 2, 0, 1, 2, 3, 1, 1, 1, 2, 3, 0, 4, 2, 3, 4, 5, 2, 0, 1, 0, 0, 3, 0, 0})
	f.Add([]byte{2, 0, 5, 10, 0, 1, 1, 0, 1, 2, 2, 3, 2, 0x90, 1, 4, 4, 1, 2, 5, 1, 2, 0, 2, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 || len(data) > 512 {
			return
		}
		nb := int(data[0]%8)%5 + 1
		shared, marginal := data[0]&0x80 != 0, data[0]&0x40 != 0 && nb > 1
		if len(data) < 1+nb {
			return
		}
		dicts := map[string]*table.Dict{}
		bags := make([]*bag.Bag, nb)
		for i := range bags {
			w, start := int(data[1+i]%5), int(data[1+i]/5)
			attrs := make([]string, w)
			for k := range attrs {
				attrs[k] = fuzzAttrs[(start+k)%len(fuzzAttrs)]
			}
			s := bag.MustSchema(attrs...)
			if !shared {
				bags[i] = bag.New(s)
				continue
			}
			cols := make([]*table.Dict, s.Len())
			for k, a := range s.Attrs() {
				if dicts[a] == nil {
					dicts[a] = table.NewDict()
				}
				cols[k] = dicts[a]
			}
			b, err := bag.NewShared(s, cols, 0)
			if err != nil {
				t.Fatal(err)
			}
			bags[i] = b
		}
		filled := bags
		if marginal {
			filled = bags[:nb-1]
		}
		for body := data[1+nb:]; len(body) > 0; {
			b := filled[int(body[0])%len(filled)]
			w := b.Schema().Len()
			if len(body) < w+2 {
				break
			}
			vals := make([]string, w)
			for k := range vals {
				vals[k] = strconv.Itoa(int(body[1+k] % 6))
			}
			var err error
			switch cb := body[1+w]; {
			case cb == 0:
				err = b.Set(vals, 0)
			case cb&0x80 != 0:
				err = b.Add(vals, 1<<40-int64(cb&0x7f))
			default:
				err = b.Add(vals, int64(cb))
			}
			if err != nil {
				t.Fatal(err)
			}
			body = body[w+2:]
		}
		if marginal {
			attrs := bags[0].Schema().Attrs()
			m, err := bags[0].Marginal(bag.MustSchema(attrs[min(1, len(attrs)):]...))
			if err != nil {
				t.Fatal(err)
			}
			bags[nb-1] = m
		}
		diff, err := referenceMismatch(bags)
		if err != nil {
			t.Fatal(err)
		}
		if diff != "" {
			t.Fatal(diff)
		}
	})
}

// TestDistinctColorsMatchesSortedCount holds the open-addressing count
// to the count of a sorted copy on color 0, duplicates, colors sharing
// their top bits (so they probe from one slot) and colors at the top of
// the range (so their probes wrap around the table).
func TestDistinctColorsMatchesSortedCount(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	random := make([]uint64, 300)
	for x := range random {
		random[x] = rng.Uint64() >> uint(rng.Intn(64))
	}
	for _, colors := range [][]uint64{
		nil,
		{0},
		{0, 0, 0},
		{5, 5, 5},
		{0, 1, 2, 3, 1, 0, 2},
		{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12},
		{^uint64(0), ^uint64(0) - 1, ^uint64(0) - 2, 1 << 63, ^uint64(0), 0},
		{1 << 62, 1<<62 + 1, 1<<62 + 2, 3 << 61, 3<<61 + 1, 1<<62 + 1},
		random,
		append(slices.Clone(random), random[:100]...),
	} {
		sorted := slices.Clone(colors)
		slices.Sort(sorted)
		want := len(slices.Compact(sorted))
		set := make([]uint64, 1<<bits.Len(uint(2*len(colors))))
		if got := distinctColors(colors, set); got != want {
			t.Errorf("distinctColors(%v) = %d, want %d", colors, got, want)
		}
	}
}

// TestSortRowsMatchesCompare holds the counting sort to the comparison
// sort it replaces: slices.Compare over each row's rank vector with its
// count appended. Vectors repeat, with different counts, as they can only
// on a non-injective dictionary, so the count tie-break is exercised.
func TestSortRowsMatchesCompare(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 200; trial++ {
		w, n := rng.Intn(4), rng.Intn(40)
		spaces := make([]space, 1+rng.Intn(3))
		for k := range spaces {
			spaces[k].vals = make([]string, 1+rng.Intn(6))
		}
		colSpace := make([]int, w)
		for j := range colSpace {
			colSpace[j] = rng.Intn(len(spaces))
		}
		vecs := make([]uint32, n*w)
		for x := range vecs {
			vecs[x] = uint32(rng.Intn(len(spaces[colSpace[x%w]].vals)))
		}
		counts := make([]int64, n)
		for r := range counts {
			counts[r] = 1 + rng.Int63n(3)
		}
		row := func(p int32) []uint64 {
			out := make([]uint64, 0, w+1)
			for _, x := range vecs[int(p)*w : int(p+1)*w] {
				out = append(out, uint64(x))
			}
			return append(out, uint64(counts[p]))
		}
		want := make([]int32, n)
		for x := range want {
			want[x] = int32(x)
		}
		slices.SortFunc(want, func(a, b int32) int { return slices.Compare(row(a), row(b)) })
		got := sortRows(vecs, w, counts, colSpace, spaces, make([]int32, n), make([]int32, n), make([]int32, 7))
		for x := range got {
			if !slices.Equal(row(got[x]), row(want[x])) {
				t.Fatalf("trial %d (w=%d, n=%d): position %d holds %v, want %v", trial, w, n, x, row(got[x]), row(want[x]))
			}
		}
	}
}
