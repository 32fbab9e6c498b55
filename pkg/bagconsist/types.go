package bagconsist

import (
	"math/big"

	"bagconsistency/internal/bag"
	"bagconsistency/internal/core"
	"bagconsistency/internal/hypergraph"
	"bagconsistency/internal/ilp"
)

// The data types of the engine. They are aliases of the internal
// implementation types: code outside this module cannot import the
// internal packages directly, but values of these types flow freely
// through the public API, and the methods defined on them (Marginal,
// VerifyWitness, PairwiseConsistent, ...) are part of this package's
// surface.
type (
	// Bag is a multiset relation: tuples over a fixed schema with
	// non-negative integer multiplicities.
	Bag = bag.Bag
	// Schema is an ordered set of attribute names.
	Schema = bag.Schema
	// Tuple is an assignment of values to a schema's attributes.
	Tuple = bag.Tuple
	// Collection is a collection of bags over a hypergraph schema — the
	// input of every global-consistency query.
	Collection = core.Collection
	// Hypergraph is the schema hypergraph: one hyperedge per bag.
	Hypergraph = hypergraph.Hypergraph
	// TupleCost assigns a linear cost to witness tuples for
	// MinCostPairWitness.
	TupleCost = core.TupleCost
)

// ErrNodeLimit is returned (wrapped) when the integer search exceeds its
// node budget; callers distinguish "proved infeasible" from "gave up" with
// errors.Is(err, ErrNodeLimit).
var ErrNodeLimit = ilp.ErrNodeLimit

// NewSchema builds a schema from attribute names.
func NewSchema(attrs ...string) (*Schema, error) { return bag.NewSchema(attrs...) }

// MustSchema is NewSchema that panics on error, for literals in tests and
// examples.
func MustSchema(attrs ...string) *Schema { return bag.MustSchema(attrs...) }

// NewBag returns an empty bag over the schema.
func NewBag(s *Schema) *Bag { return bag.New(s) }

// BagFromRows builds a bag from rows and per-row counts (nil counts means
// all 1).
func BagFromRows(s *Schema, rows [][]string, counts []int64) (*Bag, error) {
	return bag.FromRows(s, rows, counts)
}

// Join computes the bag join R ⋈b S (multiplicities multiply on matching
// shared attributes). Note the bag join is NOT a consistency witness in
// general — that failure of relational intuition is the paper's starting
// point.
func Join(r, s *Bag) (*Bag, error) { return bag.Join(r, s) }

// JoinSupports joins the supports of two bags with all multiplicities 1 —
// the index set of the program P(R,S).
func JoinSupports(r, s *Bag) (*Bag, error) { return bag.JoinSupports(r, s) }

// NewHypergraph builds a hypergraph from its hyperedges (attribute lists).
func NewHypergraph(edges [][]string) (*Hypergraph, error) { return hypergraph.New(edges) }

// NewCollection validates that the bags' schemas match the hyperedges
// index by index and returns the collection.
func NewCollection(h *Hypergraph, bags []*Bag) (*Collection, error) {
	return core.NewCollection(h, bags)
}

// NewCollection2 wraps two bags as a collection over the two-edge
// hypergraph of their schemas.
func NewCollection2(r, s *Bag) (*Collection, error) { return core.NewCollection2(r, s) }

// CollectionFromMarginals builds the collection over h obtained by taking
// the marginal of a single global bag on every hyperedge; it is globally
// consistent by construction.
func CollectionFromMarginals(h *Hypergraph, global *Bag) (*Collection, error) {
	return core.CollectionFromMarginals(h, global)
}

// TseitinCollection builds the pairwise-consistent, globally-inconsistent
// collection over a cyclic hypergraph used by the Theorem 2
// counterexamples.
func TseitinCollection(h *Hypergraph) (*Collection, error) { return core.TseitinCollection(h) }

// CyclicCounterexample lifts a Tseitin core to an arbitrary cyclic
// hypergraph, producing a pairwise-consistent, globally-inconsistent
// collection (Theorem 2, via the Lemma 3/4 machinery).
func CyclicCounterexample(h *Hypergraph) (*Collection, error) { return core.CyclicCounterexample(h) }

// PairConsistent reports whether two bags are consistent via the
// polynomial marginal test of Lemma 2 (equal marginals on the shared
// attributes).
func PairConsistent(r, s *Bag) (bool, error) { return core.PairConsistent(r, s) }

// RelaxedPairConsistent reports whether two bags are consistent in the
// relaxed (proportional) sense of the companion work [AK20].
func RelaxedPairConsistent(r, s *Bag) (bool, error) { return core.RelaxedPairConsistent(r, s) }

// MinCostPairWitness constructs a witness of the consistency of two bags
// minimizing a linear tuple cost, by exact LP with an integral optimum.
func MinCostPairWitness(r, s *Bag, cost TupleCost) (*Bag, bool, error) {
	return core.MinCostPairWitness(r, s, cost)
}

// WitnessCost evaluates a linear tuple cost on a witness bag.
func WitnessCost(w *Bag, cost TupleCost) (*big.Int, error) { return core.WitnessCost(w, cost) }
