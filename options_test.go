package actjoin

// The differential-only options. Each forces the reference side of a pair
// of paths the differential suites prove equivalent, so tests and
// benchmarks can compare the two; production always runs the other side.

// withIncrementalPublish(false) freezes every publish in full, the path a
// patched publish must match byte for byte (and the path a Degraded shard
// falls back to at compaction thresholds).
func withIncrementalPublish(enabled bool) Option {
	return func(o *options) error {
		o.fullPublish = !enabled
		return nil
	}
}

// withBackgroundCompaction(false) compacts inline, on the writer, at every
// garbage-threshold crossing — the behaviour of a Degraded shard and the
// reference the background compactor is checked against.
func withBackgroundCompaction(enabled bool) Option {
	return func(o *options) error {
		o.noBgCompact = !enabled
		return nil
	}
}

// withWalkRemoval(true) makes Remove walk the whole super-covering quadtree
// instead of the per-polygon cell directory: the removal oracle.
func withWalkRemoval(enabled bool) Option {
	return func(o *options) error {
		o.walkRemoval = enabled
		return nil
	}
}
