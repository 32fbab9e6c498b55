package canon

import (
	"crypto/sha256"
	"encoding/binary"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"bagconsistency/internal/bag"
	"bagconsistency/internal/gen"
	"bagconsistency/internal/table"
)

// This file pins the interned refinement to the original string-keyed
// implementation: refBags below is the pre-columnar canon.Bags, kept
// verbatim as an executable specification. Fingerprints are persistent
// cache keys (bagstore records survive process restarts and engine
// upgrades), so the columnar rewrite must be bit-for-bit identical — not
// merely isomorphism-invariant — and this property test enforces that on
// randomized instances.

type refValueRef struct {
	attr string
	val  string
}

// refCanonical is what the string-keyed implementation returned: the
// fingerprint and both value tables, built eagerly.
type refCanonical struct {
	FP     Fingerprint
	Values map[string][]string
	Index  map[string]map[string]int
}

func refBags(bags []*bag.Bag) (*refCanonical, error) {
	type tupleRow struct {
		refs  []refValueRef
		count int64
	}
	type bagRows struct {
		attrs []string
		rows  []tupleRow
	}
	instance := make([]bagRows, len(bags))
	valueSet := make(map[refValueRef]bool)
	for i, b := range bags {
		attrs := b.Schema().Attrs()
		br := bagRows{attrs: attrs}
		err := b.Each(func(t bag.Tuple, count int64) error {
			vals := t.Values()
			row := tupleRow{refs: make([]refValueRef, len(vals)), count: count}
			for j, v := range vals {
				ref := refValueRef{attr: attrs[j], val: v}
				row.refs[j] = ref
				valueSet[ref] = true
			}
			br.rows = append(br.rows, row)
			return nil
		})
		if err != nil {
			return nil, err
		}
		instance[i] = br
	}

	color := make(map[refValueRef]uint64, len(valueSet))
	for ref := range valueSet {
		color[ref] = hashStrings("attr", ref.attr)
	}
	refCountDistinct := func(m map[refValueRef]uint64) int {
		seen := make(map[uint64]bool, len(m))
		for _, v := range m {
			seen[v] = true
		}
		return len(seen)
	}
	distinct := refCountDistinct(color)
	for round := 0; round <= len(color); round++ {
		occ := make(map[refValueRef][]uint64, len(color))
		for i := range instance {
			for _, row := range instance[i].rows {
				h := newHasher()
				h.writeUint(uint64(i))
				h.writeUint(uint64(row.count))
				for _, ref := range row.refs {
					h.writeUint(color[ref])
				}
				th := h.sum()
				for _, ref := range row.refs {
					occ[ref] = append(occ[ref], th)
				}
			}
		}
		next := make(map[refValueRef]uint64, len(color))
		for ref, old := range color {
			hs := occ[ref]
			sort.Slice(hs, func(a, b int) bool { return hs[a] < hs[b] })
			h := newHasher()
			h.writeUint(old)
			for _, v := range hs {
				h.writeUint(v)
			}
			next[ref] = h.sum()
		}
		color = next
		if d := refCountDistinct(color); d == distinct {
			break
		} else {
			distinct = d
		}
	}

	perAttr := make(map[string][]string)
	for ref := range valueSet {
		perAttr[ref.attr] = append(perAttr[ref.attr], ref.val)
	}
	can := &refCanonical{
		Values: make(map[string][]string, len(perAttr)),
		Index:  make(map[string]map[string]int, len(perAttr)),
	}
	for attr, vals := range perAttr {
		sort.Slice(vals, func(a, b int) bool {
			ca := color[refValueRef{attr: attr, val: vals[a]}]
			cb := color[refValueRef{attr: attr, val: vals[b]}]
			if ca != cb {
				return ca < cb
			}
			return vals[a] < vals[b]
		})
		idx := make(map[string]int, len(vals))
		for i, v := range vals {
			idx[v] = i
		}
		can.Values[attr] = vals
		can.Index[attr] = idx
	}

	enc := sha256.New()
	var buf [8]byte
	writeU64 := func(v uint64) {
		binary.BigEndian.PutUint64(buf[:], v)
		enc.Write(buf[:])
	}
	writeStr := func(s string) {
		writeU64(uint64(len(s)))
		enc.Write([]byte(s))
	}
	writeU64(uint64(len(instance)))
	for _, br := range instance {
		writeU64(uint64(len(br.attrs)))
		for _, a := range br.attrs {
			writeStr(a)
		}
		rows := make([][]uint64, len(br.rows))
		for r, row := range br.rows {
			vec := make([]uint64, 0, len(row.refs)+1)
			for _, ref := range row.refs {
				vec = append(vec, uint64(can.Index[ref.attr][ref.val]))
			}
			vec = append(vec, uint64(row.count))
			rows[r] = vec
		}
		sort.Slice(rows, func(a, b int) bool { return refLessUint64s(rows[a], rows[b]) })
		writeU64(uint64(len(rows)))
		for _, vec := range rows {
			for _, v := range vec {
				writeU64(v)
			}
		}
	}
	copy(can.FP[:], enc.Sum(nil))
	return can, nil
}

func refLessUint64s(a, b []uint64) bool {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}

// values returns the canonical value tables in the reference's shape.
func (c *Canonical) values() map[string][]string {
	m := make(map[string][]string, len(c.cols))
	for _, t := range c.cols {
		m[t.attr] = t.vals
	}
	return m
}

// index returns, per attribute, the map from value to canonical index.
func (c *Canonical) index() map[string]map[string]int {
	m := make(map[string]map[string]int, len(c.cols))
	for _, t := range c.cols {
		m[t.attr] = make(map[string]int, len(t.vals))
		for i, v := range t.vals {
			m[t.attr][v] = i
		}
	}
	return m
}

// TestFingerprintMatchesStringKeyedReference checks, on randomized
// acyclic and cyclic instances and large pairs, that the interned
// columnar refinement produces exactly the fingerprints and canonical
// value tables of the original string-keyed implementation.
func TestFingerprintMatchesStringKeyedReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	trials := 40
	if testing.Short() {
		trials = 10
	}
	for trial := 0; trial < trials; trial++ {
		h, err := gen.RandomAcyclicHypergraph(rng, 2+rng.Intn(4), 3)
		if err != nil {
			t.Fatal(err)
		}
		c, _, err := gen.RandomConsistent(rng, h, 2+rng.Intn(30), 1<<uint(1+rng.Intn(12)), 2+rng.Intn(6))
		if err != nil {
			t.Fatal(err)
		}
		got, err := Bags(c.Bags())
		if err != nil {
			t.Fatal(err)
		}
		want, err := refBags(c.Bags())
		if err != nil {
			t.Fatal(err)
		}
		if got.FP != want.FP {
			t.Fatalf("trial %d: fingerprint diverged from string-keyed reference\n got %s\nwant %s",
				trial, got.FP, want.FP)
		}
		if !reflect.DeepEqual(got.values(), want.Values) {
			t.Fatalf("trial %d: canonical value tables diverged\n got %v\nwant %v", trial, got.values(), want.Values)
		}
		if !reflect.DeepEqual(got.index(), want.Index) {
			t.Fatalf("trial %d: canonical index tables diverged", trial)
		}
	}

	// Cyclic 3DCT instances exercise the shared-attribute refinement.
	for trial := 0; trial < 10; trial++ {
		inst, err := gen.RandomThreeDCT(rng, 2+rng.Intn(3), 4)
		if err != nil {
			t.Fatal(err)
		}
		c, err := inst.ToCollection()
		if err != nil {
			t.Fatal(err)
		}
		got, err := Bags(c.Bags())
		if err != nil {
			t.Fatal(err)
		}
		want, err := refBags(c.Bags())
		if err != nil {
			t.Fatal(err)
		}
		if got.FP != want.FP {
			t.Fatalf("cyclic trial %d: fingerprint diverged from reference", trial)
		}
	}

	// Support-1024 pairs give values occurrence lists longer than the
	// insertion-sort cutoff.
	for trial := 0; trial < 3; trial++ {
		r, s, err := gen.RandomConsistentPair(rng, 1024, 1<<20, 1024/8+2)
		if err != nil {
			t.Fatal(err)
		}
		diff, err := referenceMismatch([]*bag.Bag{r, s})
		if err != nil {
			t.Fatal(err)
		}
		if diff != "" {
			t.Fatalf("support-1024 trial %d: %s", trial, diff)
		}
	}
}

// TestFingerprintEmptyAndDegenerate covers the edge shapes: empty bags,
// the empty schema, and single-value domains.
func TestFingerprintEmptyAndDegenerate(t *testing.T) {
	empty := bag.New(bag.MustSchema("A", "B"))
	nullary := bag.New(bag.MustSchema())
	if err := nullary.Add(nil, 3); err != nil {
		t.Fatal(err)
	}
	single := bag.New(bag.MustSchema("A"))
	if err := single.Add([]string{"x"}, 7); err != nil {
		t.Fatal(err)
	}
	for name, bags := range map[string][]*bag.Bag{
		"empty":    {empty},
		"nullary":  {nullary},
		"single":   {single},
		"combined": {empty, nullary, single},
	} {
		got, err := Bags(bags)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want, err := refBags(bags)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got.FP != want.FP {
			t.Fatalf("%s: fingerprint diverged from reference", name)
		}
	}
}

// TestFingerprintMatchesReferenceOnSharedDictionaries runs the same
// comparison where dictionaries are shared and sparse: each bag sits
// beside a marginal of it (which adopts the parent's dictionaries, values
// the marginal's rows never use included) or a clone with one tuple
// deleted (its dictionaries keep the deleted values). A space is then fed
// by one dictionary through several columns, or by several dictionaries
// whose strings must meet.
func TestFingerprintMatchesReferenceOnSharedDictionaries(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 40; trial++ {
		h, err := gen.RandomAcyclicHypergraph(rng, 2+rng.Intn(4), 3)
		if err != nil {
			t.Fatal(err)
		}
		c, _, err := gen.RandomConsistent(rng, h, 2+rng.Intn(20), 1<<uint(1+rng.Intn(8)), 2+rng.Intn(5))
		if err != nil {
			t.Fatal(err)
		}
		var bags []*bag.Bag
		for _, b := range c.Bags() {
			attrs := b.Schema().Attrs()
			if len(attrs) > 1 && rng.Intn(2) == 0 {
				m, err := b.Marginal(bag.MustSchema(attrs[1:]...))
				if err != nil {
					t.Fatal(err)
				}
				bags = append(bags, m, b)
				continue
			}
			cl := b.Clone()
			if tups := cl.Tuples(); len(tups) > 1 {
				if err := cl.Set(tups[0].Values(), 0); err != nil {
					t.Fatal(err)
				}
			}
			bags = append(bags, b, cl)
		}
		got, err := Bags(bags)
		if err != nil {
			t.Fatal(err)
		}
		want, err := refBags(bags)
		if err != nil {
			t.Fatal(err)
		}
		if got.FP != want.FP {
			t.Fatalf("trial %d: fingerprint diverged from string-keyed reference", trial)
		}
		if !reflect.DeepEqual(got.values(), want.Values) || !reflect.DeepEqual(got.index(), want.Index) {
			t.Fatalf("trial %d: canonical value tables diverged", trial)
		}
		for attr, vals := range want.Values {
			d, ids := got.IDs(attr)
			for rank, id := range ids {
				if id != table.MissingID && d.Value(id) != vals[rank] {
					t.Fatalf("trial %d: %q index %d maps to %q, want %q", trial, attr, rank, d.Value(id), vals[rank])
				}
			}
		}
	}
}
