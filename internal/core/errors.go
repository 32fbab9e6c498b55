package core

import "fmt"

// OverflowError reports that an instance's multiplicities are too large
// for the max-flow machinery: the total multiplicity of R or of S — the
// supply or the demand of N(R,S), which bounds every flow value — does
// not fit in int64. The decision procedures return it as a typed error —
// callers can distinguish "the instance is numerically out of range"
// from "the computation failed" — instead of wrapping a generic
// arithmetic failure.
type OverflowError struct {
	// Op names the quantity that overflowed, e.g. "total multiplicity of R".
	Op string
}

func (e *OverflowError) Error() string {
	return fmt.Sprintf("core: %s overflows int64", e.Op)
}
