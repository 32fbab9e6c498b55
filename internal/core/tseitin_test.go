package core

import (
	"math"
	"testing"

	"bagconsistency/internal/hypergraph"
)

func TestTseitinRequiresUniformRegular(t *testing.T) {
	mixed := hypergraph.Must([]string{"A", "B"}, []string{"A", "B", "C"})
	if _, err := TseitinCollection(mixed); err == nil {
		t.Error("expected uniformity error")
	}
	// 1-regular (star has hub degree n, satellites degree 1): not regular.
	if _, err := TseitinCollection(hypergraph.Star(3)); err == nil {
		t.Error("expected regularity error")
	}
	// d = 1: a single edge is 1-regular.
	single := hypergraph.Must([]string{"A", "B"})
	if _, err := TseitinCollection(single); err == nil {
		t.Error("expected d ≥ 2 error")
	}
}

func TestTseitinSupportSizes(t *testing.T) {
	// Over C_n (k = d = 2): each bag has support {00, 11} (sum ≡ 0 mod 2)
	// except the last with {01, 10}.
	c, err := TseitinCollection(hypergraph.Cycle(4))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < c.Len(); i++ {
		if got := c.Bag(i).SupportSize(); got != 2 {
			t.Errorf("bag %d support = %d, want 2", i, got)
		}
	}
	last := c.Bag(c.Len() - 1)
	if last.Count([]string{"0", "1"}) != 1 || last.Count([]string{"1", "0"}) != 1 {
		t.Errorf("last bag should be the odd-parity bag, got\n%v", last)
	}
}

func TestTseitinPairwiseMarginalsAreUniform(t *testing.T) {
	// The proof's counting claim: marginals on any shared schema Z are
	// uniform with value d^{k-|Z|-1}.
	for _, h := range []*hypergraph.Hypergraph{
		hypergraph.Cycle(4),
		hypergraph.Cycle(5),
		hypergraph.AllButOne(4),
	} {
		c, err := TseitinCollection(h)
		if err != nil {
			t.Fatal(err)
		}
		k, _ := h.Uniformity()
		d, _ := h.Regularity()
		for i := 0; i < c.Len(); i++ {
			for j := i + 1; j < c.Len(); j++ {
				z := c.Bag(i).Schema().Intersect(c.Bag(j).Schema())
				mi, err := c.Bag(i).Marginal(z)
				if err != nil {
					t.Fatal(err)
				}
				mj, err := c.Bag(j).Marginal(z)
				if err != nil {
					t.Fatal(err)
				}
				if !mi.Equal(mj) {
					t.Fatalf("%v: bags %d,%d shared marginals differ", h, i, j)
				}
				want := int64(math.Pow(float64(d), float64(k-z.Len()-1)))
				for _, tup := range mi.Tuples() {
					if got := mi.CountTuple(tup); got != want {
						t.Fatalf("%v: marginal value %d, want d^(k-|Z|-1) = %d", h, got, want)
					}
				}
			}
		}
	}
}

func TestTseitinPairwiseConsistentGloballyInconsistent(t *testing.T) {
	// The headline property (Theorem 2, Step 2) on the minimal cores.
	for _, h := range []*hypergraph.Hypergraph{
		hypergraph.Cycle(3),
		hypergraph.Cycle(4),
		hypergraph.Cycle(5),
		hypergraph.Cycle(6),
		hypergraph.AllButOne(4),
	} {
		c, err := TseitinCollection(h)
		if err != nil {
			t.Fatal(err)
		}
		pw, err := c.PairwiseConsistent()
		if err != nil {
			t.Fatal(err)
		}
		if !pw {
			t.Fatalf("%v: Tseitin collection must be pairwise consistent", h)
		}
		dec, err := c.GloballyConsistent(GlobalOptions{MaxNodes: 2_000_000})
		if err != nil {
			t.Fatal(err)
		}
		if dec.Consistent {
			t.Fatalf("%v: Tseitin collection must NOT be globally consistent", h)
		}
	}
}

func TestTseitinModularObstruction(t *testing.T) {
	// Directly check the counting argument: any tuple over all vertices
	// whose projections hit every support would need Σ d·t(C) ≡ 1 (mod d).
	// Verified indirectly: the join of all supports is empty for C_n with
	// odd parity demanded on exactly one edge... it is non-empty for C3?
	// Enumerate and check no join tuple projects into every support.
	h := hypergraph.Cycle(4)
	c, err := TseitinCollection(h)
	if err != nil {
		t.Fatal(err)
	}
	_, j, err := c.BuildProgram()
	if err != nil {
		t.Fatal(err)
	}
	// Every tuple in J projects into every support by construction of the
	// join; the obstruction therefore forces J to be empty.
	if j.Rows.N() != 0 {
		t.Fatalf("join of supports should be empty for the C4 Tseitin collection, has %d tuples", j.Rows.N())
	}
}

func TestTseitinKWiseHierarchy(t *testing.T) {
	// Over C_n, every n-1 of the Tseitin bags live on a path (acyclic), so
	// the collection is (n-1)-wise consistent; only the full cycle carries
	// the parity obstruction. The hierarchy is strict at the top.
	for _, n := range []int{4, 5} {
		c, err := TseitinCollection(hypergraph.Cycle(n))
		if err != nil {
			t.Fatal(err)
		}
		almost, err := c.KWiseConsistent(n-1, GlobalOptions{MaxNodes: 2_000_000})
		if err != nil {
			t.Fatal(err)
		}
		if !almost {
			t.Fatalf("C%d Tseitin should be %d-wise consistent", n, n-1)
		}
		full, err := c.KWiseConsistent(n, GlobalOptions{MaxNodes: 2_000_000})
		if err != nil {
			t.Fatal(err)
		}
		if full {
			t.Fatalf("C%d Tseitin should not be %d-wise consistent", n, n)
		}
	}
}
