package supercover

import (
	"cmp"
	"slices"

	"actjoin/internal/cellid"
	"actjoin/internal/refs"
)

// Dirty-region tracking for incremental freezes.
//
// Every mutation of the quadtree (Insert, RemovePolygon, a Train split, a
// scoped refinement) records the cell id of the shallowest subtree root it
// modified. The invariant this buys — and that the incremental publish path
// relies on — is containment: after coalescing, every cell that changed (in
// the tree or relative to the last freeze) lies fully inside one recorded
// root, and every cell outside all recorded roots is bit-identical to its
// previously frozen form. The argument: mutating strictly below an existing
// cell is impossible (Insert's conflict resolution clears the ancestor cell
// first and records it; Train splits record the split cell; removal records
// each cell it edits), so a region can never be dirtied while an unchanged
// coarser cell still covers it.
//
// The tracking is writer-side state with the same synchronization contract
// as the tree itself; TakeDirty transfers and resets it at each freeze.

// maxDirtyRoots bounds the raw mark log. Bulk loads (initial builds,
// deserialization) would otherwise record one mark per cell; past the cap
// the covering just declares everything dirty, which is also the correct
// answer for those workloads.
const maxDirtyRoots = 1 << 15

// markDirty records one touched subtree root.
func (sc *SuperCovering) markDirty(id cellid.CellID) {
	if sc.dirtyAll {
		return
	}
	if len(sc.dirty) >= maxDirtyRoots {
		sc.dirtyAll = true
		sc.dirty = nil
		return
	}
	sc.dirty = append(sc.dirty, id)
}

// markAllDirty declares the whole covering dirty (bulk rebuilds).
func (sc *SuperCovering) markAllDirty() {
	sc.dirtyAll = true
	sc.dirty = nil
}

// TakeDirty returns the subtree roots touched since the last call, sorted in
// cell-id range order with nested roots coalesced into their ancestors, and
// resets the tracking. all reports that the covering must be treated as
// entirely dirty (bulk mutations, or mark-log overflow); roots is nil then.
func (sc *SuperCovering) TakeDirty() (roots []cellid.CellID, all bool) {
	roots, all = sc.dirty, sc.dirtyAll
	sc.dirty, sc.dirtyAll = nil, false
	if all || len(roots) == 0 {
		return nil, all
	}
	return CoalesceRoots(roots), false
}

// CoalesceRoots sorts dirty roots in place into cell-id range order and
// drops roots nested in (or equal to) an earlier one, returning the disjoint
// prefix. The containment guarantee of per-publish marks survives the merge:
// a union of mark sets taken across several publishes coalesces to roots
// that jointly cover every cell changed since the first of those publishes
// (the background compactor's replay log relies on this).
func CoalesceRoots(roots []cellid.CellID) []cellid.CellID {
	if len(roots) == 0 {
		return roots
	}
	// Order by range start; ties (same corner) put the coarser root first so
	// the containment sweep below keeps it.
	slices.SortFunc(roots, func(a, b cellid.CellID) int {
		if c := cmp.Compare(a.RangeMin(), b.RangeMin()); c != 0 {
			return c
		}
		return cmp.Compare(a.Level(), b.Level())
	})
	out := roots[:1]
	lastMax := roots[0].RangeMax()
	for _, r := range roots[1:] {
		if r.RangeMax() <= lastMax {
			continue // nested in (or equal to) the previously kept root
		}
		out = append(out, r)
		lastMax = r.RangeMax()
	}
	return out
}

// AppendRegion appends the frozen cells contained in root's extent to dst,
// in sorted order — the scoped counterpart of CellsAppend for one dirty
// subtree, with the same flat packing of reference lists (one allocation
// per call, not per cell). ok is false when a cell coarser than root covers
// the region: its cells cannot be expressed within root's range and the
// caller must fall back to a full freeze. (The dirty-tracking invariant
// makes that case unreachable for coalesced TakeDirty roots; the check is
// defense in depth.)
func (sc *SuperCovering) AppendRegion(dst []Cell, root cellid.CellID) ([]Cell, bool) {
	cur := sc.roots[root.Face()]
	level := root.Level()
	for l := 1; cur != nil && l <= level; l++ {
		if cur.hasCell {
			return dst, false
		}
		cur = cur.children[root.ChildPosition(l)]
	}
	if cur == nil {
		return dst, true // region holds no cells
	}
	cells, rs := 0, 0
	countEmit(cur, &cells, &rs)
	flat := make([]refs.Ref, 0, rs)
	emit(cur, root, &dst, &flat)
	return dst, true
}

// ResetRegion discards the subtree at root and replaces it with the given
// cells, which must all be contained in root (they come from a frozen
// snapshot, so they are disjoint and pre-normalized). It is the undo
// primitive of aborted transactions: resetting every dirty root from the
// previously published cells restores the covering to its published state.
// Returns false — leaving the region untouched — when the region cannot be
// spliced (an ancestor cell covers it, or a cell is not inside root); the
// caller falls back to a full rebuild.
func (sc *SuperCovering) ResetRegion(root cellid.CellID, cells []Cell) bool {
	level := root.Level()
	for _, c := range cells {
		if c.ID.Level() < level || !root.Contains(c.ID) {
			return false
		}
	}

	face := root.Face()
	if sc.roots[face] != nil {
		type step struct {
			n   *node
			pos int
		}
		path := make([]step, 0, level)
		cur := sc.roots[face]
		for l := 1; l <= level && cur != nil; l++ {
			if cur.hasCell {
				return false // an ancestor cell covers the region
			}
			pos := root.ChildPosition(l)
			path = append(path, step{cur, pos})
			cur = cur.children[pos]
		}
		if cur != nil {
			sc.numCells -= sc.detachCells(cur, root)
			if len(path) == 0 {
				sc.roots[face] = nil
			} else {
				last := path[len(path)-1]
				last.n.children[last.pos] = nil
				// Prune chains emptied by the detach: an empty node would
				// later divert Insert into its distribute path and shatter
				// cells that a fresh tree would store whole.
				for i := len(path) - 1; i > 0; i-- {
					n := path[i].n
					if n.hasCell || n.hasChildren() {
						break
					}
					path[i-1].n.children[path[i-1].pos] = nil
				}
				if r := sc.roots[face]; !r.hasCell && !r.hasChildren() {
					sc.roots[face] = nil
				}
			}
		}
	}

	for _, c := range cells {
		sc.Insert(c.ID, c.Refs)
	}
	return true
}

// detachCells counts the cells held in the subtree rooted at id and strips
// their references from the per-polygon directory: the subtree is about to
// be discarded, and the frozen cells re-inserted in its place re-register
// themselves through Insert.
func (sc *SuperCovering) detachCells(n *node, id cellid.CellID) int {
	if n.hasCell {
		sc.dir.removeRefs(id, n.refs)
		return 1
	}
	total := 0
	for i := 0; i < 4; i++ {
		if n.children[i] != nil {
			total += sc.detachCells(n.children[i], id.Child(i))
		}
	}
	return total
}
