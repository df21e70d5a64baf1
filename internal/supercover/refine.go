package supercover

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"actjoin/internal/cellid"
	"actjoin/internal/cover"
	"actjoin/internal/geom"
	"actjoin/internal/refs"
)

// RefineToPrecision implements the approximate join's precision bound
// (Section 3.2): every cell carrying a candidate (boundary) reference and
// coarser than minLevel is replaced by descendant cells. Each descendant is
// classified against the referenced polygons: descendants that no longer
// intersect a polygon drop its reference, descendants fully inside are
// promoted to true hits, and intersecting descendants stay candidates and
// are subdivided further until minLevel.
//
// After refinement, every remaining candidate cell has level >= minLevel, so
// any false positive of the approximate join is within the diagonal of a
// minLevel cell of the polygon (the sqrt(2)*side bound of Section 3.2).
//
// Descendants that become pure true hits stop subdividing early: shattering
// them further to exactly minLevel would change nothing the index can
// observe (every point in them is a true hit either way) and only multiply
// the cell count.
//
// This is the bulk path: it rewrites the whole tree, so the descent does no
// per-split directory upkeep — nothing reads the directory until it ends —
// and the directory is rebuilt once from the finished tree instead (see
// rebuildDirectory).
//
// The covering's cells are disjoint and refining one never touches another,
// so they are the pass's tasks: up to GOMAXPROCS workers claim them in
// ascending id order from one shared cursor, each descending on its own
// stacks. Polygons are immutable, so the workers share them read-only. The
// resulting tree does not depend on the worker count.
func (sc *SuperCovering) RefineToPrecision(polys []*geom.Polygon, minLevel int) {
	sc.refineToPrecision(polys, minLevel, runtime.GOMAXPROCS(0))
}

// refineToPrecision is RefineToPrecision on at most workers workers (and at
// most one per task); with one, the pass runs on the calling goroutine.
func (sc *SuperCovering) refineToPrecision(polys []*geom.Polygon, minLevel, workers int) {
	if minLevel > cover.MaxSupportedLevel {
		minLevel = cover.MaxSupportedLevel
	}
	sc.markAllDirty()
	var tasks []refineTask
	for f := 0; f < cellid.NumFaces; f++ {
		if sc.roots[f] != nil {
			tasks = appendCellTasks(tasks, sc.roots[f], cellid.FaceCell(f))
		}
	}
	workers = max(1, min(workers, len(tasks)))

	// Each worker counts the cells it adds and drops in its own refiner and
	// reports the delta in its own slot, so sc.numCells is only written
	// here, after the workers are done.
	deltas := make([]int, workers)
	var next atomic.Int64
	work := func(w int) {
		r := refiner{polys: polys, minLevel: minLevel}
		for {
			i := next.Add(1) - 1
			if i >= int64(len(tasks)) {
				break
			}
			r.refineNode(tasks[i].n, tasks[i].id, tasks[i].id.Bound())
		}
		deltas[w] = r.cells
	}
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		//act:norecover pure-compute refinement worker rewriting only the subtrees of the cells it claims; a panic is a broken invariant with no state to contain
		go func(w int) {
			defer wg.Done()
			work(w)
		}(w)
	}
	work(0)
	wg.Wait()
	for _, d := range deltas {
		sc.numCells += d
	}

	rest := tasks
	for f := 0; f < cellid.NumFaces; f++ {
		if sc.roots[f] != nil && pruneRefined(sc.roots[f], &rest) {
			sc.roots[f] = nil
		}
	}
	sc.dir = rebuildDirectory(&sc.roots)
}

// refineTask is one cell of the covering as the bulk pass found it: the
// node holding it and its id.
type refineTask struct {
	n  *node
	id cellid.CellID
}

// appendCellTasks appends the cells under n (cell id) to tasks in ascending
// id order.
func appendCellTasks(tasks []refineTask, n *node, id cellid.CellID) []refineTask {
	if n.hasCell {
		return append(tasks, refineTask{n, id})
	}
	for i := 0; i < 4; i++ {
		if n.children[i] != nil {
			tasks = appendCellTasks(tasks, n.children[i], id.Child(i))
		}
	}
	return tasks
}

// pruneRefined is the bulk pass's bottom-up prune (see pruneEmptyAt):
// it detaches the task nodes that refinement left with neither a cell nor
// children, and the ancestors that emptied with them, and reports whether
// n itself is left empty. It retraces appendCellTasks' walk, consuming
// *tasks as it meets their nodes, and does not descend below a task: the
// descent already dropped every empty node it would have created there.
func pruneRefined(n *node, tasks *[]refineTask) bool {
	if t := *tasks; len(t) > 0 && t[0].n == n {
		*tasks = t[1:]
		return !n.hasCell && !n.hasChildren()
	}
	for i := 0; i < 4; i++ {
		if n.children[i] != nil && pruneRefined(n.children[i], tasks) {
			n.children[i] = nil
		}
	}
	return !n.hasChildren()
}

// RefineCells is RefineToPrecision scoped to the regions of the given seed
// cells: for each seed, the unique cell containing it — or, when the seed's
// area has been split across finer cells, the whole subtree under the
// seed's position — is refined to minLevel.
//
// This is the runtime-add path's refinement. Inserting a polygon's covering
// places new references (and the copies conflict resolution makes of old
// ones) strictly inside the inserted cells, while every cell outside them
// already satisfied the precision invariant, so refining just the seed
// regions restores the invariant at O(covering) instead of an O(index)
// full-tree rescan. Nor does it pay for the whole polygons it touches: each
// cell's candidate references are classified from the edges in the cell's
// own bands of the polygon's band index (see refineNode). It shares
// RefineToPrecision's descent, but updates the directory only for polygon
// ids a cell gains or loses: a rebuild would cost O(index), and a region
// that is already refined mostly keeps its cells' polygon sets, so
// revisiting it writes almost nothing.
func (sc *SuperCovering) RefineCells(polys []*geom.Polygon, seeds []cellid.CellID, minLevel int) {
	if minLevel > cover.MaxSupportedLevel {
		minLevel = cover.MaxSupportedLevel
	}
	r := refiner{polys: polys, minLevel: minLevel, dir: &sc.dir}
	for _, seed := range seeds {
		cur := sc.roots[seed.Face()]
		id := cellid.FaceCell(seed.Face())
		level := seed.Level()
		for l := 1; cur != nil && l <= level; l++ {
			if cur.hasCell {
				// An ancestor cell covers the whole seed region. (Cannot
				// happen right after inserting the seed — insertion splits
				// such ancestors — but makes the method correct for any
				// seed set.)
				break
			}
			pos := seed.ChildPosition(l)
			cur = cur.children[pos]
			id = id.Child(pos)
		}
		if cur != nil {
			// The refinement rewrites this subtree in place; record its root
			// (usually re-marking the seed Insert already marked, but the
			// ancestor-cell break above can land coarser).
			sc.markDirty(id)
			r.refineNode(cur, id, id.Bound())
			sc.pruneEmptyAt(id)
		}
	}
	sc.numCells += r.cells
}

// refiner is one refinement pass, or one worker of a parallel pass: its
// inputs, the directory it keeps in step, the scratch its descent reuses
// and the cell count it changed.
type refiner struct {
	polys    []*geom.Polygon
	minLevel int
	// dir is the directory updated for every polygon id a cell gains or
	// loses, or nil when the caller rebuilds it after the pass (directory
	// methods are no-ops on nil).
	dir *directory
	// cells is the number of cells the descent added minus those it
	// dropped; the caller adds it to the covering's count.
	cells int

	// Descent stacks. A cell's classification appends its interior refs,
	// boundary contexts and their clipped edges above those of the cells
	// still being descended, and truncates them back once the cell is done,
	// so past the stacks' own growth a pass allocates only each new or
	// changed cell's reference list and each new node.
	interior []refs.Ref
	boundary []boundaryCtx
	edges    []geom.Segment
	// list is the scratch each cell's reference list is built and
	// normalized on (see cellRefs).
	list []refs.Ref
}

// boundaryCtx tracks one candidate reference during refinement descent: the
// polygon and the subset of its edges that can still intersect the current
// cell.
type boundaryCtx struct {
	ref   refs.Ref
	poly  *geom.Polygon
	edges []geom.Segment
}

// seedRelate classifies rect against poly from the polygon's band index and
// appends the edges that meet rect to dst: the seed of a refinement
// descent. AppendEdgesInRect scans only the bands rect spans. Any edge
// makes rect partial; no edge means rect is inside or disjoint as its
// center's ContainsPoint says. That is ClippedRelate's rule over the full
// edge set, so relation and edge set are the same as
// ClippedRelate(nil, poly, rect, cover.Edges(poly)), without copying or
// scanning the whole polygon.
func seedRelate(dst []geom.Segment, poly *geom.Polygon, rect geom.Rect) (geom.RectRelation, []geom.Segment) {
	n := len(dst)
	dst = poly.AppendEdgesInRect(dst, rect)
	switch {
	case len(dst) > n:
		return geom.RectPartial, dst
	case poly.ContainsPoint(rect.Center()):
		return geom.RectInside, dst
	}
	return geom.RectDisjoint, dst
}

// classify files one candidate reference by its relation to the cell being
// classified: inside promotes it to a true hit on the interior stack,
// partial pushes a boundary context over the edges the relation appended to
// the edge stack (from start on), disjoint drops it.
func (r *refiner) classify(rel geom.RectRelation, ref refs.Ref, poly *geom.Polygon, start int) {
	switch rel {
	case geom.RectInside:
		r.interior = append(r.interior, refs.MakeRef(ref.PolygonID(), true))
	case geom.RectPartial:
		end := len(r.edges)
		r.boundary = append(r.boundary, boundaryCtx{ref: ref, poly: poly, edges: r.edges[start:end:end]})
	}
}

// cellRefs builds a cell's reference list on r.list: its interior refs
// followed by its boundary refs, normalized. The list is scratch, valid
// until the next call; a node that keeps it gets a copy.
func (r *refiner) cellRefs(interior []refs.Ref, boundary []boundaryCtx) []refs.Ref {
	list := append(r.list[:0], interior...)
	for _, bc := range boundary {
		list = append(list, bc.ref)
	}
	r.list = list[:0]
	return refs.Normalize(list)
}

// refineNode refines every cell in n's subtree; bound is id's Bound. A
// cell's candidate references are classified by seedRelate; the seeds of
// the partial ones start splitBoundary's descent. The bulk pass calls it on
// cells only; a RefineCells seed region may also be a subtree of several,
// whose children's bounds come from one decode of id (ChildBounds).
func (r *refiner) refineNode(n *node, id cellid.CellID, bound geom.Rect) {
	if !n.hasCell {
		bounds := id.ChildBounds()
		for i := 0; i < 4; i++ {
			if n.children[i] != nil {
				r.refineNode(n.children[i], id.Child(i), bounds[i])
				if c := n.children[i]; !c.hasCell && !c.hasChildren() {
					// Every reference in the child's subtree turned out
					// disjoint: drop the emptied node (see pruneEmptyAt).
					n.children[i] = nil
				}
			}
		}
		return
	}

	// Classify this cell's references. Conflict-resolution difference cells
	// inherit references wholesale, so a candidate reference here may
	// actually be disjoint from or fully inside its polygon. Reclassifying
	// every boundary cell — even those already at minLevel or deeper — is
	// required for the precision guarantee: a stale candidate reference on
	// a deep cell could otherwise point at a polygon arbitrarily far away.
	iMark, bMark, eMark := len(r.interior), len(r.boundary), len(r.edges)
	for _, ref := range n.refs {
		if ref.Interior() {
			r.interior = append(r.interior, ref)
			continue
		}
		poly := r.polys[ref.PolygonID()]
		start := len(r.edges)
		var rel geom.RectRelation
		rel, r.edges = seedRelate(r.edges, poly, bound)
		r.classify(rel, ref, poly, start)
	}
	interior := r.interior[iMark:len(r.interior):len(r.interior)]
	boundary := r.boundary[bMark:len(r.boundary):len(r.boundary)]

	switch {
	case len(boundary) == 0 && len(interior) == 0:
		// Every reference was disjoint: drop the cell.
		r.dir.removeRefs(id, n.refs)
		n.hasCell = false
		n.refs = nil
		r.cells--
	case len(boundary) == 0 || id.Level() >= r.minLevel:
		// Nothing left to refine, or deep enough already: keep the cell
		// (possibly promoted to a pure true-hit cell) with the cleaned-up
		// reference set.
		r.keepCell(n, id, interior, boundary)
	default:
		// Replace the boundary cell with classified descendants.
		r.dir.removeRefs(id, n.refs)
		n.hasCell = false
		n.refs = nil
		r.cells--
		r.splitBoundary(n, id, interior, boundary)
	}
	r.interior, r.boundary, r.edges = r.interior[:iMark], r.boundary[:bMark], r.edges[:eMark]
}

// keepCell installs the cleaned-up reference list of a cell refineNode
// keeps. When the list equals the cell's current one, the node keeps its
// slice and the directory is not touched — the usual case when a region
// that is already refined is revisited. Otherwise the node gets a copy,
// and the directory changes only for the polygon ids the cell gains or
// loses: a candidate promoted to an interior ref keeps its polygon id, and
// so its footprint entry.
func (r *refiner) keepCell(n *node, id cellid.CellID, interior []refs.Ref, boundary []boundaryCtx) {
	list := r.cellRefs(interior, boundary)
	if slices.Equal(list, n.refs) {
		return
	}
	r.dir.updateRefs(id, n.refs, list)
	n.refs = copyRefs(list)
}

// splitBoundary recursively subdivides a boundary region down to minLevel.
// interior references apply to the whole subtree; boundary contexts are
// reclassified per child with shrinking clipped edge sets. All four child
// bounds come from one decode of id (ChildBounds), and each child's
// classification lives on the descent stacks above its parent's frame.
func (r *refiner) splitBoundary(n *node, id cellid.CellID, interior []refs.Ref, boundary []boundaryCtx) {
	bounds := id.ChildBounds()
	for i := 0; i < 4; i++ {
		childID := id.Child(i)
		iMark, bMark, eMark := len(r.interior), len(r.boundary), len(r.edges)
		r.interior = append(r.interior, interior...)
		for _, bc := range boundary {
			start := len(r.edges)
			var rel geom.RectRelation
			rel, r.edges = cover.ClippedRelate(r.edges, bc.poly, bounds[i], bc.edges)
			r.classify(rel, bc.ref, bc.poly, start)
		}
		childInterior := r.interior[iMark:len(r.interior):len(r.interior)]
		childBoundary := r.boundary[bMark:len(r.boundary):len(r.boundary)]

		switch {
		case len(childBoundary) == 0 && len(childInterior) == 0:
			// The child is outside every referenced polygon.
		case len(childBoundary) == 0 || childID.Level() >= r.minLevel:
			// Terminal: pure true-hit cell, or precision bound reached.
			child := &node{hasCell: true, refs: copyRefs(r.cellRefs(childInterior, childBoundary))}
			n.children[i] = child
			r.dir.addRefs(childID, child.refs)
			r.cells++
		default:
			child := &node{}
			n.children[i] = child
			r.splitBoundary(child, childID, childInterior, childBoundary)
			if !child.hasCell && !child.hasChildren() {
				// The recursion classified every grandchild as disjoint: no
				// cell materialized, so the node must not stay (see
				// pruneEmptyAt).
				n.children[i] = nil
			}
		}
		r.interior, r.boundary, r.edges = r.interior[:iMark], r.boundary[:bMark], r.edges[:eMark]
	}
}
