package actjoin

import (
	"sort"

	"actjoin/internal/cellid"
	"actjoin/internal/supercover"
)

// cellRope is a snapshot's frozen cell list, stored as an ordered sequence
// of sorted, disjoint runs. Incremental publishes splice the next snapshot
// out of the previous one — clean runs are carried over as subslices (no
// cell is copied, reference lists stay shared), dirty regions contribute
// freshly emitted runs — so the per-publish cost is proportional to the
// mutation, not to the covering. Runs and their cells are immutable once
// published; flatten() compacts the run list when splicing has fragmented
// it past maxCellRuns.
type cellRope struct {
	runs  [][]supercover.Cell
	total int
}

// ropeCompactRuns is the fragmentation level at which a publish asks for a
// compaction (a background one by default): a compacted snapshot's rope is a
// single run. maxCellRuns is the inline last-resort bound — if fragmentation
// outruns the compactor (or background compaction is disabled), the next
// patched publish flattens the rope itself with one covering-sized copy, a
// write stall the background path exists to avoid.
const (
	ropeCompactRuns = 1 << 14
	maxCellRuns     = 1 << 17
)

// ropeFromCells wraps an owned, sorted cell slice.
func ropeFromCells(cells []supercover.Cell) *cellRope {
	if len(cells) == 0 {
		return &cellRope{}
	}
	return &cellRope{runs: [][]supercover.Cell{cells}, total: len(cells)}
}

// Len returns the number of cells.
func (r *cellRope) Len() int { return r.total }

// appendRun splices a run, merging it with the tail run when the two are
// contiguous views of the same backing array (adjacent dirty regions emit
// into one buffer; clean runs split around an empty region rejoin).
//
//act:hotpath
func (r *cellRope) appendRun(run []supercover.Cell) {
	if len(run) == 0 {
		return
	}
	r.total += len(run)
	if n := len(r.runs); n > 0 {
		tail := r.runs[n-1]
		if cap(tail) >= len(tail)+len(run) {
			ext := tail[: len(tail)+len(run) : len(tail)+len(run)]
			if &ext[len(tail)] == &run[0] {
				// run directly follows tail in the same backing array: the
				// extension is the identical memory, so merge the views.
				r.runs[n-1] = ext
				return
			}
		}
	}
	r.runs = append(r.runs, run)
}

// appendAll materializes the rope into dst. The returned cells' reference
// lists stay aliased to the frozen runs.
//
//act:frozen
func (r *cellRope) appendAll(dst []supercover.Cell) []supercover.Cell {
	for _, run := range r.runs {
		dst = append(dst, run...)
	}
	return dst
}

// flatten returns an equivalent single-run rope (compacting the run list).
func (r *cellRope) flatten() *cellRope {
	if len(r.runs) <= 1 {
		return r
	}
	return ropeFromCells(r.appendAll(make([]supercover.Cell, 0, r.total)))
}

// rangeRuns calls fn with each run segment whose cells satisfy
// lo <= ID <= hi, in rope order — the shared intersection walk behind
// appendRange and countRange. The first overlapping run is found by binary
// search over the (sorted, disjoint) run list, so a lookup on a heavily
// fragmented rope — fragmentation is only bounded by the compaction cadence
// — costs O(log runs + overlapping runs), not a scan of every run.
//
//act:hotpath
func (r *cellRope) rangeRuns(lo, hi cellid.CellID, fn func(seg []supercover.Cell)) {
	first := sort.Search(len(r.runs), func(i int) bool {
		run := r.runs[i]
		return run[len(run)-1].ID >= lo
	})
	for _, run := range r.runs[first:] {
		if run[0].ID > hi {
			break
		}
		a := sort.Search(len(run), func(i int) bool { return run[i].ID >= lo })
		b := sort.Search(len(run), func(i int) bool { return run[i].ID > hi })
		fn(run[a:b])
	}
}

// appendRange appends the cells with lo <= ID <= hi to dst (the frozen
// contents of one region, for transaction rollback). As with appendAll, the
// result's reference lists alias the frozen runs.
//
//act:frozen
func (r *cellRope) appendRange(dst []supercover.Cell, lo, hi cellid.CellID) []supercover.Cell {
	r.rangeRuns(lo, hi, func(seg []supercover.Cell) { dst = append(dst, seg...) })
	return dst
}

// countRange counts the cells with lo <= ID <= hi — appendRange without the
// copy, for sizing decisions before any splice work happens.
//
//act:hotpath
func (r *cellRope) countRange(lo, hi cellid.CellID) int {
	total := 0
	r.rangeRuns(lo, hi, func(seg []supercover.Cell) { total += len(seg) })
	return total
}

// ropeCursor walks a rope in cell order, splitting runs at region
// boundaries during a splice.
type ropeCursor struct {
	rope *cellRope
	ri   int // current run
	off  int // offset within it
}

// copyBefore advances the cursor to the first cell with ID >= bound,
// splicing the skipped-over cells into out as subslice runs. It returns the
// last copied cell (nil when none was copied).
//
//act:hotpath
func (c *ropeCursor) copyBefore(bound cellid.CellID, out *cellRope) *supercover.Cell {
	var last *supercover.Cell
	for c.ri < len(c.rope.runs) {
		run := c.rope.runs[c.ri]
		rest := run[c.off:]
		if len(rest) == 0 {
			c.ri++
			c.off = 0
			continue
		}
		if rest[0].ID >= bound {
			break
		}
		// Deliberately not capacity-capped: appendRun detects that a chunk
		// directly continues the rope's tail in the same backing array (the
		// other side of an empty region's split) and re-merges the views.
		n := sort.Search(len(rest), func(i int) bool { return rest[i].ID >= bound })
		out.appendRun(rest[:n])
		last = &rest[n-1]
		c.off += n
		if n == len(rest) {
			c.ri++
			c.off = 0
		}
	}
	return last
}

// skipThrough advances the cursor past every cell with ID <= bound, calling
// fn for each skipped cell, and returns the count.
//
//act:hotpath
func (c *ropeCursor) skipThrough(bound cellid.CellID, fn func(supercover.Cell)) int {
	skipped := 0
	for c.ri < len(c.rope.runs) {
		run := c.rope.runs[c.ri]
		rest := run[c.off:]
		if len(rest) == 0 {
			c.ri++
			c.off = 0
			continue
		}
		if rest[0].ID > bound {
			break
		}
		n := sort.Search(len(rest), func(i int) bool { return rest[i].ID > bound })
		for _, cell := range rest[:n] {
			fn(cell)
		}
		skipped += n
		c.off += n
		if n == len(rest) {
			c.ri++
			c.off = 0
		}
	}
	return skipped
}

// copyRest splices everything after the cursor into out.
//
//act:hotpath
func (c *ropeCursor) copyRest(out *cellRope) {
	for ; c.ri < len(c.rope.runs); c.ri++ {
		run := c.rope.runs[c.ri][c.off:]
		c.off = 0
		out.appendRun(run)
	}
}
