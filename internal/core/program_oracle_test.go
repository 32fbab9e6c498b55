package core_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strconv"
	"testing"

	"bagconsistency/internal/bag"
	"bagconsistency/internal/bagio"
	"bagconsistency/internal/core"
	"bagconsistency/internal/gen"
	"bagconsistency/internal/hypergraph"
	"bagconsistency/internal/ilp"
	"bagconsistency/internal/table"
)

// The reference BuildProgram is held to is a string-keyed builder with
// the old engine's construction: it materializes every intermediate join
// bag, lists J and each bag in display order by comparing value strings
// (Tuples), and finds each column's constraint rows by projecting its
// tuple onto every bag and looking the projection up by key.

// oracleJoinAllSupports computes J = R1' ⋈ ... ⋈ Rm' as a
// multiplicity-1 bag over the union schema.
func oracleJoinAllSupports(c *core.Collection) (*bag.Bag, error) {
	if c.Len() == 0 {
		return nil, fmt.Errorf("core: empty collection")
	}
	acc := c.Bag(0).SupportBag()
	for _, b := range c.Bags()[1:] {
		j, err := bag.Join(acc, b.SupportBag())
		if err != nil {
			return nil, err
		}
		acc = j
	}
	return acc, nil
}

// oracleBuildProgram builds P(R1,...,Rm) with rows bag by bag in each
// bag's display order and columns in J's display order, returning the
// tuple of every column.
func oracleBuildProgram(c *core.Collection) (*ilp.Problem, []bag.Tuple, error) {
	j, err := oracleJoinAllSupports(c)
	if err != nil {
		return nil, nil, err
	}
	bags := c.Bags()
	rowOf := make([]map[string]int, len(bags)) // support tuple key -> constraint row
	var b []int64
	for i, rb := range bags {
		rowOf[i] = map[string]int{}
		for _, t := range rb.Tuples() {
			rowOf[i][t.Key()] = len(b)
			b = append(b, rb.CountTuple(t))
		}
	}
	tuples := j.Tuples()
	cols := make([][]int, len(tuples))
	for tj, t := range tuples {
		cols[tj] = make([]int, len(bags))
		for i, rb := range bags {
			p, err := t.Project(rb.Schema())
			if err != nil {
				return nil, nil, err
			}
			row, ok := rowOf[i][p.Key()]
			if !ok {
				return nil, nil, fmt.Errorf("core: join tuple projects outside bag %d support", i)
			}
			cols[tj][i] = row
		}
	}
	if len(b) == 0 {
		return &ilp.Problem{M: 1, Cols: nil, B: []int64{0}}, nil, nil
	}
	return &ilp.Problem{M: len(b), Cols: cols, B: b}, tuples, nil
}

// joinValues decodes row col of the join BuildProgram returns.
func joinValues(j bag.View, col int) []string {
	vals := make([]string, j.Rows.W)
	for k, id := range j.Rows.Row(col) {
		vals[k] = j.Cols[k].Value(id)
	}
	return vals
}

// checkProgramMatchesOracle fails unless BuildProgram returns the
// oracle's program field for field, and a join of multiplicity 1 whose
// row j decodes to the oracle's column j tuple.
func checkProgramMatchesOracle(t testing.TB, label string, c *core.Collection) {
	t.Helper()
	p, j, err := c.BuildProgram()
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	want, tuples, err := oracleBuildProgram(c)
	if err != nil {
		t.Fatalf("%s: oracle: %v", label, err)
	}
	if !reflect.DeepEqual(p, want) {
		t.Fatalf("%s: program\n%+v\nwant\n%+v", label, *p, *want)
	}
	if j.Rows.N() != len(tuples) {
		t.Fatalf("%s: join has %d rows for %d columns", label, j.Rows.N(), len(tuples))
	}
	for col, tup := range tuples {
		if got := joinValues(j, col); !tup.Schema().Equal(j.Schema) || !slices.Equal(got, tup.Values()) || j.Rows.Counts[col] != 1 {
			t.Fatalf("%s: column %d decodes to %v over %v (count %d), want %v over %v",
				label, col, got, j.Schema, j.Rows.Counts[col], tup, tup.Schema())
		}
	}
}

// withCore returns c and, when c is cyclic with an acyclic fringe, its
// GYO core: the sub-collection the hybrid search builds a program for.
func withCore(t testing.TB, c *core.Collection) []*core.Collection {
	t.Helper()
	elim, coreEdges := c.Hypergraph().CoreDecomposition()
	if len(elim) == 0 || len(coreEdges) <= 1 {
		return []*core.Collection{c}
	}
	sub, err := c.Sub(coreEdges)
	if err != nil {
		t.Fatal(err)
	}
	return []*core.Collection{c, sub}
}

// redecoded sends c through the JSON wire, which puts its bags on one
// dictionary per attribute, as bagcd decodes a request.
func redecoded(t testing.TB, c *core.Collection) *core.Collection {
	t.Helper()
	named := make([]bagio.NamedBag, c.Len())
	for i, b := range c.Bags() {
		named[i] = bagio.NamedBag{Name: "r" + strconv.Itoa(i), Bag: b}
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

// bagOf builds a bag over attrs on its own dictionaries from rows of
// single-character values ("ab" is the row (a, b)), each of multiplicity
// its map value.
func bagOf(t testing.TB, attrs []string, rows map[string]int64) *bag.Bag {
	t.Helper()
	b := bag.New(bag.MustSchema(attrs...))
	for k, n := range rows {
		vals := make([]string, 0, len(k))
		for _, ch := range k {
			vals = append(vals, string(ch))
		}
		if err := b.Add(vals, n); err != nil {
			t.Fatal(err)
		}
	}
	return b
}

func collectionOf(t testing.TB, bags ...*bag.Bag) *core.Collection {
	t.Helper()
	edges := make([][]string, len(bags))
	for i, b := range bags {
		edges[i] = b.Schema().Attrs()
	}
	h, err := hypergraph.New(edges)
	if err != nil {
		t.Fatal(err)
	}
	c, err := core.NewCollection(h, bags)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// oracleCollections is the labeled instance set of
// TestBuildProgramMatchesJoinOracle.
func oracleCollections(t testing.TB) map[string]*core.Collection {
	t.Helper()
	out := map[string]*core.Collection{}
	add := func(label string, c *core.Collection) {
		for k, x := range withCore(t, c) {
			out[label+"/core"[:5*k]] = x
		}
		for k, x := range withCore(t, redecoded(t, c)) {
			out[label+"/wire"+"/core"[:5*k]] = x
		}
	}
	rng := rand.New(rand.NewSource(26))
	for n := 2; n <= 6; n++ {
		for trial := 0; trial < 4; trial++ {
			inst, err := gen.RandomThreeDCT(rng, n, 3)
			if err != nil {
				t.Fatal(err)
			}
			label := fmt.Sprintf("3dct n=%d #%d", n, trial)
			add(label, mustTriangle(t, inst))
			swapped, err := gen.PerturbTriangleMargins(rng, inst, 1+trial)
			if err != nil {
				t.Fatal(err)
			}
			add(label+" swapped", mustTriangle(t, swapped))
			bumped, err := gen.Perturb(rng, mustTriangle(t, inst))
			if err != nil {
				t.Fatal(err)
			}
			add(label+" bumped", bumped)
		}
	}
	// Pairwise consistent and infeasible: a 3DCT triangle with a nonempty
	// join, and the parity triangle, whose join is empty.
	inf, err := gen.InfeasibleThreeDCT(rand.New(rand.NewSource(17)), 2, 3, 200, 200_000)
	if err != nil {
		t.Fatal(err)
	}
	add("infeasible 3dct", mustTriangle(t, inf))
	add("parity triangle (empty join)", collectionOf(t,
		bagOf(t, []string{"A", "B"}, map[string]int64{"00": 1, "11": 1}),
		bagOf(t, []string{"B", "C"}, map[string]int64{"01": 1, "10": 1}),
		bagOf(t, []string{"A", "C"}, map[string]int64{"00": 1, "11": 1})))
	for m := 3; m <= 6; m++ {
		for k := 1; k <= 2 && k < m; k++ {
			h, err := gen.NearAcyclicHypergraph(m, k)
			if err != nil {
				t.Fatal(err)
			}
			c, _, err := gen.RandomConsistent(rng, h, 4*m, 3, 2+m)
			if err != nil {
				t.Fatal(err)
			}
			add(fmt.Sprintf("near-acyclic m=%d k=%d", m, k), c)
		}
	}

	// Separate dictionaries: every bag interns on its own, so ids differ
	// across bags, and B's dictionary in the second bag holds "9", which
	// no other bag has (once a row, then deleted), and "7", which the
	// first bag lacks.
	r := bagOf(t, []string{"A", "B"}, map[string]int64{"12": 2, "13": 1, "21": 1, "23": 4})
	s := bagOf(t, []string{"B", "C"}, map[string]int64{"72": 1, "31": 3, "22": 2, "11": 1, "32": 1})
	if err := s.Add([]string{"9", "9"}, 1); err != nil {
		t.Fatal(err)
	}
	if err := s.Set([]string{"9", "9"}, 0); err != nil {
		t.Fatal(err)
	}
	u := bagOf(t, []string{"A", "C"}, map[string]int64{"22": 3, "11": 2, "12": 1, "31": 1})
	add("separate dictionaries", collectionOf(t, r, s, u))
	add("separate dictionaries, reversed", collectionOf(t, u, s, r))

	// Dictionaries far larger than the ids the rows hold: the rank tables
	// and the join's radix keys cover ids no row uses.
	padded := func(attrs []string, rows map[string]int64) *bag.Bag {
		b := bagOf(t, attrs, nil)
		for x := 0; x < 1500; x++ {
			v := "pad" + strconv.Itoa(x)
			if err := b.Add([]string{v, v}, 1); err != nil {
				t.Fatal(err)
			}
			if err := b.Set([]string{v, v}, 0); err != nil {
				t.Fatal(err)
			}
		}
		for k, n := range rows {
			if err := b.Add([]string{k[:1], k[1:]}, n); err != nil {
				t.Fatal(err)
			}
		}
		return b
	}
	add("large dictionaries", collectionOf(t,
		padded([]string{"A", "B"}, map[string]int64{"12": 2, "13": 1, "21": 1, "23": 4, "33": 1}),
		padded([]string{"B", "C"}, map[string]int64{"22": 2, "31": 3, "32": 2, "11": 1, "33": 1}),
		bagOf(t, []string{"A", "C"}, map[string]int64{"22": 3, "11": 2, "12": 1, "31": 1, "33": 1, "13": 1})))

	// Disjoint schemas: J is the cross product.
	add("disjoint", collectionOf(t,
		bagOf(t, []string{"A", "B"}, map[string]int64{"12": 1, "21": 2, "22": 1}),
		bagOf(t, []string{"C"}, map[string]int64{"1": 3, "2": 1}),
		bagOf(t, []string{"D", "E"}, map[string]int64{"11": 1, "31": 2})))

	// An empty bag empties J but keeps every other bag's rows.
	add("empty bag", collectionOf(t,
		bagOf(t, []string{"A", "B"}, map[string]int64{"12": 1, "21": 2}),
		bagOf(t, []string{"B", "C"}, nil),
		bagOf(t, []string{"A", "C"}, map[string]int64{"11": 1})))
	add("all bags empty", collectionOf(t,
		bagOf(t, []string{"A", "B"}, nil),
		bagOf(t, []string{"B", "C"}, nil)))
	add("one bag", collectionOf(t, bagOf(t, []string{"A", "B", "C"}, map[string]int64{"123": 1, "321": 2, "111": 5})))

	// A key of three shared attributes: marginals of one global bag.
	g := bagOf(t, []string{"A", "B", "C", "D", "E"}, nil)
	for x := 0; x < 40; x++ {
		vals := make([]string, 5)
		for k := range vals {
			vals[k] = strconv.Itoa(rng.Intn(3))
		}
		if err := g.Add(vals, int64(1+rng.Intn(3))); err != nil {
			t.Fatal(err)
		}
	}
	h := hypergraph.Must([]string{"A", "B", "C", "D"}, []string{"A", "B", "C", "E"}, []string{"B", "C", "D", "E"})
	wide, err := core.CollectionFromMarginals(h, g)
	if err != nil {
		t.Fatal(err)
	}
	add("three-attribute key", wide)
	return out
}

func mustTriangle(t testing.TB, inst interface {
	ToCollection() (*core.Collection, error)
}) *core.Collection {
	t.Helper()
	c, err := inst.ToCollection()
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestBuildProgramMatchesJoinOracle: the id-space builder returns the
// string-ordered builder's program, rows, columns and right-hand sides
// in the same order, and each column's tuple, on every instance shape:
// triangles (swapped, bumped, infeasible), near-acyclic collections and
// their GYO cores, each also re-decoded onto shared dictionaries, bags
// on separate dictionaries, disjoint schemas, empty bags and joins, one
// bag, and a three-attribute key.
func TestBuildProgramMatchesJoinOracle(t *testing.T) {
	colls := oracleCollections(t)
	labels := make([]string, 0, len(colls))
	for label := range colls {
		labels = append(labels, label)
	}
	slices.Sort(labels)
	for _, label := range labels {
		checkProgramMatchesOracle(t, label, colls[label])
	}
}

// TestJoinAllSupportsEmptyCollection: neither builder accepts a
// collection without bags.
func TestJoinAllSupportsEmptyCollection(t *testing.T) {
	c := &core.Collection{}
	if _, err := oracleJoinAllSupports(c); err == nil {
		t.Error("oracle: expected error for empty collection")
	}
	if _, _, err := c.BuildProgram(); err == nil {
		t.Error("expected error for empty collection")
	}
}

// fuzzShapes are the schemas FuzzBuildProgram fills.
var fuzzShapes = [][][]string{
	{{"A", "B"}, {"B", "C"}, {"A", "C"}},
	{{"A", "B"}, {"B", "C"}, {"C", "D"}},
	{{"A", "B"}, {"C"}},
	{{"A", "B", "C", "D"}, {"A", "B", "C"}, {"B", "C", "D", "E"}},
	{{"A", "B"}},
	{{"A", "B"}, {"B", "C"}, {"C", "D"}, {"A", "D"}},
	{{"A", "B"}, {"A", "C"}, {"A", "D"}, {"B", "C", "D"}},
}

// FuzzBuildProgram: small bags built from the fuzz input. The first
// byte picks a schema, whether the bags share one dictionary per
// attribute (as decoded requests do) or intern on their own, and
// whether every dictionary first takes 300 values no row holds (so ids
// outrun the rows); every further run of bytes adds a row to the bag
// its first byte names, with values from three per attribute and
// multiplicities from one to four. BuildProgram must match the oracle.
func FuzzBuildProgram(f *testing.F) {
	f.Add([]byte{0, 0, 1, 2, 1, 1, 2, 0, 3, 2, 1, 0, 1})
	f.Add([]byte{0x80, 0, 0, 0, 0, 1, 0, 0, 0, 2, 0, 0, 0})
	f.Add([]byte{3, 0, 1, 2, 0, 1, 0, 1, 1, 2, 2, 2, 1, 2, 0, 1, 2, 0, 2, 0})
	f.Add([]byte{0x82, 0, 1, 2, 0, 1, 2, 1, 0})
	f.Add([]byte{0x40, 0, 0, 1, 2, 1, 1, 2, 0, 3, 2, 1, 0, 1, 2, 2, 0, 1})
	f.Add([]byte{0xc3, 0, 1, 2, 0, 1, 0, 1, 1, 2, 2, 2, 1, 2, 0, 1, 2, 0, 2, 0})
	f.Add([]byte{5, 1, 0, 2, 3, 2, 1, 1, 0, 3, 2, 0, 4, 0, 1, 2, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 || len(data) > 512 {
			return
		}
		shape := fuzzShapes[int(data[0]&0x3f)%len(fuzzShapes)]
		shared, padded := data[0]&0x80 != 0, data[0]&0x40 != 0
		dicts := map[string]*table.Dict{}
		bags := make([]*bag.Bag, len(shape))
		for i, attrs := range shape {
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
		if padded {
			for _, b := range bags {
				for _, d := range b.View().Cols {
					for x := 0; x < 300; x++ {
						d.Intern("pad" + strconv.Itoa(x))
					}
				}
			}
		}
		for body := data[1:]; len(body) > 0; {
			b := bags[int(body[0])%len(bags)]
			w := b.Schema().Len()
			if len(body) < w+2 {
				break
			}
			vals := make([]string, w)
			for k := range vals {
				vals[k] = strconv.Itoa(int(body[1+k] % 3))
			}
			if err := b.Add(vals, int64(body[1+w]%4)+1); err != nil {
				t.Fatal(err)
			}
			body = body[w+2:]
		}
		checkProgramMatchesOracle(t, "fuzz", collectionOf(t, bags...))
	})
}
