package ilp

// Deterministic returns opts with Solve's randomized runs held off: Solve
// then walks only the deterministic tree, the one Enumerate walks and the
// clone oracle reproduces node for node.
func Deterministic(opts Options) Options {
	opts.deterministic = true
	return opts
}
