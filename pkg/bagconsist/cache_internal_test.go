package bagconsist

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"testing"

	"bagconsistency/internal/bag"
	"bagconsistency/internal/bagio"
	"bagconsistency/internal/canon"
	"bagconsistency/internal/core"
	"bagconsistency/internal/gen"
	"bagconsistency/internal/hypergraph"
	"bagconsistency/internal/table"
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
	can, err := canon.Bags([]*bag.Bag{r, s})
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

// overTheWire sends c's bags, each value given prefix, through the JSON
// wire, which puts them on one dictionary per attribute as bagcd
// decodes a request.
func overTheWire(t *testing.T, c *core.Collection, prefix string) *core.Collection {
	t.Helper()
	named := make([]bagio.NamedBag, c.Len())
	for i, b := range c.Bags() {
		renamed := bag.New(b.Schema())
		err := b.Each(func(tup bag.Tuple, n int64) error {
			vals := tup.Values()
			for k := range vals {
				vals[k] = prefix + vals[k]
			}
			return renamed.Add(vals, n)
		})
		if err != nil {
			t.Fatal(err)
		}
		named[i] = bagio.NamedBag{Name: "r" + strconv.Itoa(i), Bag: renamed}
	}
	var buf bytes.Buffer
	if err := bagio.EncodeJSON(&buf, named); err != nil {
		t.Fatal(err)
	}
	back, err := bagio.DecodeJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	bags := make([]*bag.Bag, len(back))
	for i, nb := range back {
		bags[i] = nb.Bag
	}
	out, err := core.NewCollection(c.Hypergraph(), bags)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// stringPayload is encodeCached's payload for rep with each witness value
// mapped to its canonical index by string, through the values of can's id
// tables.
func stringPayload(t *testing.T, rep *Report, can *canon.Canonical) []byte {
	t.Helper()
	w := rep.Witness
	cr := &cachedResult{
		consistent:     rep.Consistent,
		method:         rep.Method,
		bags:           rep.Bags,
		nodes:          rep.Nodes,
		witnessSupport: rep.WitnessSupport,
		witnessAttrs:   w.Attrs,
	}
	index := make([]map[string]int, len(w.Attrs))
	for j, a := range w.Attrs {
		d, ids := can.IDs(a)
		index[j] = make(map[string]int, len(ids))
		for x, id := range ids {
			if id != table.MissingID {
				index[j][d.Value(id)] = x
			}
		}
	}
	for _, row := range w.Rows {
		idx := make([]int, len(row.Values))
		for j, v := range row.Values {
			x, ok := index[j][v]
			if !ok {
				t.Fatalf("witness value %q not in the instance's %q column", v, w.Attrs[j])
			}
			idx[j] = x
		}
		cr.witnessRows = append(cr.witnessRows, cachedRow{indices: idx, count: row.Count})
	}
	return encodePayload(cr)
}

// TestEncodeCachedMatchesStringTranslation: encodeCached writes the
// payload a string translation of the witness writes, whether the witness
// sits on the decoded request's own dictionaries (as each method's answer
// does), on dictionaries of its own, or was decoded from JSON without a
// bag; and so does the answer for the same bags each copied onto
// dictionaries of its own. A value-renamed repeat then hits the cache and
// rebuilds the same witness under the renaming. The instances are a 3DCT
// triangle (integer program), an acyclic path (composition) and a
// near-acyclic collection (decomposition).
func TestEncodeCachedMatchesStringTranslation(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	tri, err := gen.RandomThreeDCT(rng, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	triangle, err := tri.ToCollection()
	if err != nil {
		t.Fatal(err)
	}
	path, _, err := gen.RandomConsistent(rng, hypergraph.Path(5), 16, 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	nh, err := gen.NearAcyclicHypergraph(5, 1)
	if err != nil {
		t.Fatal(err)
	}
	near, _, err := gen.RandomConsistent(rng, nh, 12, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, tc := range []struct {
		name   string
		c      *core.Collection
		method string
	}{{"triangle", triangle, "integer-program"}, {"path", path, "acyclic-jointree"}, {"near-acyclic", near, "hybrid-decomposition"}} {
		decoded := overTheWire(t, tc.c, "")
		rep, err := New().CheckGlobal(ctx, decoded)
		if err != nil || !rep.Consistent || rep.Method != tc.method {
			t.Fatalf("%s: %+v, %v; want a consistent %s answer", tc.name, rep, err, tc.method)
		}
		can, err := canon.Bags(decoded.Bags())
		if err != nil {
			t.Fatal(err)
		}
		for j, a := range rep.Witness.Attrs {
			if home, _ := can.IDs(a); rep.Witness.b.View().Cols[j] != home {
				t.Fatalf("%s: witness column %q is not on the request's dictionary", tc.name, a)
			}
		}
		want := stringPayload(t, rep, can)
		encode := func(arm string, rep *Report, can *canon.Canonical) {
			t.Helper()
			cr, err := encodeCached(rep, can)
			if err != nil {
				t.Fatalf("%s, %s: %v", tc.name, arm, err)
			}
			if got := encodePayload(cr); !bytes.Equal(got, want) {
				t.Fatalf("%s, %s: payload %x, want %x", tc.name, arm, got, want)
			}
		}
		encode("request dictionaries", rep, can)
		copied := *rep
		copied.Witness = newWitness(rep.Witness.b.Clone())
		encode("own dictionaries", &copied, can)
		body, err := json.Marshal(rep.Witness)
		if err != nil {
			t.Fatal(err)
		}
		copied.Witness = new(Witness)
		if err := json.Unmarshal(body, copied.Witness); err != nil {
			t.Fatal(err)
		}
		encode("decoded from JSON", &copied, can)

		clones := make([]*bag.Bag, decoded.Len())
		for i, b := range decoded.Bags() {
			clones[i] = b.Clone()
		}
		sep, err := core.NewCollection(decoded.Hypergraph(), clones)
		if err != nil {
			t.Fatal(err)
		}
		sepRep, err := New().CheckGlobal(ctx, sep)
		if err != nil {
			t.Fatal(err)
		}
		sepCan, err := canon.Bags(clones)
		if err != nil {
			t.Fatal(err)
		}
		encode("separate bag dictionaries", sepRep, sepCan)

		checker := New(WithCache(16))
		if _, err := checker.CheckGlobal(ctx, decoded); err != nil {
			t.Fatal(err)
		}
		renamed := overTheWire(t, tc.c, "v.")
		hit, err := checker.CheckGlobal(ctx, renamed)
		if err != nil || !hit.CacheHit {
			t.Fatalf("%s: renamed repeat %+v, %v; want a cache hit", tc.name, hit, err)
		}
		w, err := hit.WitnessBag()
		if err != nil {
			t.Fatal(err)
		}
		if ok, err := renamed.VerifyWitness(w); err != nil || !ok {
			t.Fatalf("%s: rebuilt witness does not verify: %v", tc.name, err)
		}
		key := func(vals []string, n int64, strip string) string {
			out := make([]string, len(vals))
			for k, v := range vals {
				out[k] = strings.TrimPrefix(v, strip)
			}
			return strings.Join(out, " ") + " : " + strconv.FormatInt(n, 10)
		}
		var got, orig []string
		for _, row := range hit.Witness.Rows {
			got = append(got, key(row.Values, row.Count, "v."))
		}
		for _, row := range rep.Witness.Rows {
			orig = append(orig, key(row.Values, row.Count, ""))
		}
		slices.Sort(got)
		slices.Sort(orig)
		if !slices.Equal(got, orig) {
			t.Fatalf("%s: rebuilt witness %v, want %v renamed", tc.name, got, orig)
		}
	}
}
