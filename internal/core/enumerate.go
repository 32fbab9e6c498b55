package core

import (
	"context"

	"bagconsistency/internal/bag"
	"bagconsistency/internal/ilp"
)

// CountWitnesses counts the bags witnessing the global consistency of the
// collection by enumerating the integer points of P(R1,...,Rm); for two
// bags (NewCollection2) it counts the bags witnessing their consistency.
// The count is 0 iff the collection is globally inconsistent. Exponential
// in general — intended for small instances and verification.
func (c *Collection) CountWitnesses(opts ilp.Options) (int64, error) {
	return c.CountWitnessesContext(context.Background(), opts)
}

// CountWitnessesContext is CountWitnesses with cooperative cancellation of
// the enumeration.
func (c *Collection) CountWitnessesContext(ctx context.Context, opts ilp.Options) (int64, error) {
	var n int64
	err := c.EnumerateWitnessesContext(ctx, opts, func(*bag.Bag) error {
		n++
		return nil
	})
	return n, err
}

// EnumerateWitnesses calls fn with every witness of the collection's
// global consistency, in a deterministic order. fn may return an error to
// stop early (it is propagated).
func (c *Collection) EnumerateWitnesses(opts ilp.Options, fn func(*bag.Bag) error) error {
	return c.EnumerateWitnessesContext(context.Background(), opts, fn)
}

// EnumerateWitnessesContext is EnumerateWitnesses with cooperative
// cancellation: the underlying integer search polls ctx and unwinds with
// ctx.Err() once it is done.
func (c *Collection) EnumerateWitnessesContext(ctx context.Context, opts ilp.Options, fn func(*bag.Bag) error) error {
	p, j, err := c.BuildProgram()
	if err != nil {
		return err
	}
	// A program with no columns (an empty join) has one solution, the
	// empty bag, exactly when every right-hand side is 0; the search's
	// root decides it.
	return ilp.EnumerateContext(ctx, p, opts, func(x []int64) error {
		w, err := witnessBag(j, x)
		if err != nil {
			return err
		}
		return fn(w)
	})
}
