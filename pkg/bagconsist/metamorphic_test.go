package bagconsist_test

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"bagconsistency/internal/core"
	"bagconsistency/internal/gen"
	"bagconsistency/pkg/bagconsist"
)

// Metamorphic relations of the global-consistency decision: the verdict
// is invariant under renaming values, permuting a bag's tuple insertion
// order, and permuting the order of the bags (with the schema hypergraph
// permuted alongside), and feasibility is preserved by scaling every
// multiplicity by a positive constant. Each relation is checked through
// the public facade (which decomposes cyclic schemas with a fringe) and
// through core's monolithic search, with the node budget bounding every
// search.

// permuteTupleOrder rebuilds every bag with its tuples inserted in a
// shuffled order. Bags are canonical multisets, so the result must be
// indistinguishable — this catches any dependence on insertion order
// leaking into the solver or the cache keys.
func permuteTupleOrder(t *testing.T, rng *rand.Rand, c *bagconsist.Collection) *bagconsist.Collection {
	t.Helper()
	bags := make([]*bagconsist.Bag, c.Len())
	for i, b := range c.Bags() {
		tuples := b.Tuples()
		rng.Shuffle(len(tuples), func(x, y int) { tuples[x], tuples[y] = tuples[y], tuples[x] })
		nb := bagconsist.NewBag(b.Schema())
		for _, tup := range tuples {
			if err := nb.AddTuple(tup, b.CountTuple(tup)); err != nil {
				t.Fatal(err)
			}
		}
		bags[i] = nb
	}
	out, err := bagconsist.NewCollection(c.Hypergraph(), bags)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// permuteBagOrder reorders the bags (and the hypergraph's edge list with
// them). Global consistency is a property of the set of bags, not their
// listing order.
func permuteBagOrder(t *testing.T, rng *rand.Rand, c *bagconsist.Collection) *bagconsist.Collection {
	t.Helper()
	perm := rng.Perm(c.Len())
	edges := make([][]string, c.Len())
	bags := make([]*bagconsist.Bag, c.Len())
	for dst, src := range perm {
		edges[dst] = c.Hypergraph().Edge(src)
		bags[dst] = c.Bag(src)
	}
	h, err := bagconsist.NewHypergraph(edges)
	if err != nil {
		t.Fatal(err)
	}
	out, err := bagconsist.NewCollection(h, bags)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// renameValues applies a per-attribute injective rename to every value,
// consistently across all bags sharing the attribute. Consistency is
// invariant under any such relabeling of the domains.
func renameValues(t *testing.T, c *bagconsist.Collection) *bagconsist.Collection {
	t.Helper()
	rename := make(map[string]map[string]string)
	renamed := func(attr, v string) string {
		m := rename[attr]
		if m == nil {
			m = make(map[string]string)
			rename[attr] = m
		}
		if r, ok := m[v]; ok {
			return r
		}
		r := fmt.Sprintf("%s_r%d", v, len(m))
		m[v] = r
		return r
	}
	bags := make([]*bagconsist.Bag, c.Len())
	for i, b := range c.Bags() {
		attrs := b.Schema().Attrs()
		nb := bagconsist.NewBag(b.Schema())
		err := b.Each(func(tup bagconsist.Tuple, count int64) error {
			vals := tup.Values()
			out := make([]string, len(vals))
			for j, v := range vals {
				out[j] = renamed(attrs[j], v)
			}
			return nb.Add(out, count)
		})
		if err != nil {
			t.Fatal(err)
		}
		bags[i] = nb
	}
	out, err := bagconsist.NewCollection(c.Hypergraph(), bags)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// metamorphicInstances returns named instances covering both verdicts on
// both cyclic shapes the solver cares about: a fully cyclic triangle, a
// near-acyclic core-plus-fringe schema, and a search-bound infeasible
// triangle (skipped when no instance exists at the seed).
func metamorphicInstances(t *testing.T) map[string]*bagconsist.Collection {
	t.Helper()
	out := make(map[string]*bagconsist.Collection)

	rng := rand.New(rand.NewSource(67))
	inst, err := gen.RandomThreeDCT(rng, 3, 8)
	if err != nil {
		t.Fatal(err)
	}
	coll, err := inst.ToCollection()
	if err != nil {
		t.Fatal(err)
	}
	out["triangle-feasible"] = coll

	h, err := gen.NearAcyclicHypergraph(5, 2)
	if err != nil {
		t.Fatal(err)
	}
	nearAcyclic, _, err := gen.RandomConsistent(rng, h, 4, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	out["nearacyclic-feasible"] = nearAcyclic

	if bad, err := gen.InfeasibleThreeDCT(rng, 2, 3, 200, 200_000); err == nil {
		coll, err := bad.ToCollection()
		if err != nil {
			t.Fatal(err)
		}
		out["triangle-infeasible"] = coll
	}
	return out
}

// solverConfigs is the configuration sweep every metamorphic relation
// runs under: the Checker, and core's monolithic search over the whole
// program, a measurement arm the Checker cannot select.
type solverConfig struct {
	name  string
	check func(*bagconsist.Collection) (*core.Decision, error)
}

func solverConfigs(budget int64) []solverConfig {
	ctx := context.Background()
	return []solverConfig{
		{"auto", func(c *bagconsist.Collection) (*core.Decision, error) {
			rep, err := bagconsist.New(bagconsist.WithMaxNodes(budget)).CheckGlobal(ctx, c)
			if err != nil {
				return nil, err
			}
			w, err := rep.WitnessBag()
			return &core.Decision{Consistent: rep.Consistent, Witness: w, Nodes: rep.Nodes}, err
		}},
		{"ilp", func(c *bagconsist.Collection) (*core.Decision, error) {
			return c.GloballyConsistentContext(ctx, core.GlobalOptions{ForceILP: true, MaxNodes: budget})
		}},
	}
}

func TestMetamorphicVariantsPreserveVerdict(t *testing.T) {
	const budget = 1 << 21
	rng := rand.New(rand.NewSource(68))
	for name, coll := range metamorphicInstances(t) {
		// The Checker's verdict on the original instance is the oracle
		// for every variant under every configuration.
		oracle, err := bagconsist.New(bagconsist.WithMaxNodes(budget)).CheckGlobal(context.Background(), coll)
		if err != nil {
			t.Fatalf("%s: oracle: %v", name, err)
		}
		variants := map[string]*bagconsist.Collection{
			"identical":    coll,
			"tuple-perm":   permuteTupleOrder(t, rng, coll),
			"bag-perm":     permuteBagOrder(t, rng, coll),
			"renamed":      renameValues(t, coll),
			"perm+renamed": renameValues(t, permuteBagOrder(t, rng, permuteTupleOrder(t, rng, coll))),
		}
		for vname, variant := range variants {
			for _, cfg := range solverConfigs(budget) {
				dec, err := cfg.check(variant)
				if err != nil {
					t.Fatalf("%s/%s/%s: %v", name, vname, cfg.name, err)
				}
				if dec.Consistent != oracle.Consistent {
					t.Fatalf("%s/%s/%s: verdict %v, oracle %v", name, vname, cfg.name, dec.Consistent, oracle.Consistent)
				}
				// The node budget bounds every variant's search.
				if dec.Nodes > budget {
					t.Fatalf("%s/%s/%s: nodes %d exceed budget %d", name, vname, cfg.name, dec.Nodes, budget)
				}
				if dec.Consistent && dec.Witness != nil {
					ok, err := variant.VerifyWitness(dec.Witness)
					if err != nil {
						t.Fatal(err)
					}
					if !ok {
						t.Fatalf("%s/%s/%s: witness does not verify against the variant", name, vname, cfg.name)
					}
				}
			}
		}
	}
}

func TestMetamorphicScalingPreservesFeasibility(t *testing.T) {
	// Scaling every multiplicity by f >= 1 maps any witness w to f*w, so
	// feasible instances stay feasible; the solver must agree under every
	// configuration even though the scaled search trees are much larger.
	rng := rand.New(rand.NewSource(69))
	inst, err := gen.RandomThreeDCT(rng, 3, 6)
	if err != nil {
		t.Fatal(err)
	}
	coll, err := inst.ToCollection()
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []int64{2, 7} {
		scaled, err := gen.ScaleCollection(coll, f)
		if err != nil {
			t.Fatal(err)
		}
		for _, cfg := range solverConfigs(1 << 22) {
			dec, err := cfg.check(scaled)
			if err != nil {
				t.Fatalf("f=%d %s: %v", f, cfg.name, err)
			}
			if !dec.Consistent {
				t.Fatalf("f=%d %s: scaled feasible instance judged inconsistent", f, cfg.name)
			}
			if dec.Witness != nil {
				ok, err := scaled.VerifyWitness(dec.Witness)
				if err != nil {
					t.Fatal(err)
				}
				if !ok {
					t.Fatalf("f=%d %s: witness does not verify", f, cfg.name)
				}
			}
		}
	}
}
