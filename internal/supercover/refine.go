package supercover

import (
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
func (sc *SuperCovering) RefineToPrecision(polys []*geom.Polygon, minLevel int) {
	if minLevel > cover.MaxSupportedLevel {
		minLevel = cover.MaxSupportedLevel
	}
	sc.markAllDirty()
	for f := 0; f < cellid.NumFaces; f++ {
		if sc.roots[f] != nil {
			sc.refineNode(sc.roots[f], cellid.FaceCell(f), minLevel, polys)
			sc.pruneEmptyAt(cellid.FaceCell(f))
		}
	}
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
// own bands of the polygon's band index (see refineNode).
func (sc *SuperCovering) RefineCells(polys []*geom.Polygon, seeds []cellid.CellID, minLevel int) {
	if minLevel > cover.MaxSupportedLevel {
		minLevel = cover.MaxSupportedLevel
	}
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
			sc.refineNode(cur, id, minLevel, polys)
			sc.pruneEmptyAt(id)
		}
	}
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
// ClippedRelate(poly, rect, cover.Edges(poly)), without copying or scanning
// the whole polygon.
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

// refineNode refines every cell in n's subtree. A cell's candidate
// references are classified by seedRelate; the seeds of the partial ones,
// kept back to back in one slice, start splitBoundary's descent.
func (sc *SuperCovering) refineNode(n *node, id cellid.CellID, minLevel int, polys []*geom.Polygon) {
	if !n.hasCell {
		for i := 0; i < 4; i++ {
			if n.children[i] != nil {
				sc.refineNode(n.children[i], id.Child(i), minLevel, polys)
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
	var interior []refs.Ref
	var boundary []boundaryCtx
	var edges []geom.Segment
	bound := id.Bound()
	for _, r := range n.refs {
		if r.Interior() {
			interior = append(interior, r)
			continue
		}
		poly := polys[r.PolygonID()]
		start := len(edges)
		var rel geom.RectRelation
		rel, edges = seedRelate(edges, poly, bound)
		switch rel {
		case geom.RectInside:
			interior = append(interior, refs.MakeRef(r.PolygonID(), true))
		case geom.RectPartial:
			boundary = append(boundary, boundaryCtx{ref: r, poly: poly, edges: edges[start:len(edges):len(edges)]})
		}
		// Disjoint references are dropped.
	}

	if len(boundary) == 0 {
		// Nothing left to refine: either drop the cell or keep it as a
		// (possibly promoted) pure true-hit cell.
		sc.dir.removeRefs(id, n.refs)
		if len(interior) == 0 {
			n.hasCell = false
			n.refs = nil
			sc.numCells--
		} else {
			n.refs = refs.Normalize(interior)
			sc.dir.addRefs(id, n.refs)
		}
		return
	}
	if id.Level() >= minLevel {
		// Deep enough already: keep the cell, but with the cleaned-up
		// reference set.
		all := interior
		for _, bc := range boundary {
			all = append(all, bc.ref)
		}
		sc.dir.removeRefs(id, n.refs)
		n.refs = refs.Normalize(all)
		sc.dir.addRefs(id, n.refs)
		return
	}

	// Replace the boundary cell with classified descendants.
	sc.dir.removeRefs(id, n.refs)
	n.hasCell = false
	n.refs = nil
	sc.numCells--
	sc.splitBoundary(n, id, interior, boundary, minLevel)
}

// splitBoundary recursively subdivides a boundary region down to minLevel.
// interior references apply to the whole subtree; boundary contexts are
// reclassified per child with shrinking clipped edge sets.
func (sc *SuperCovering) splitBoundary(n *node, id cellid.CellID, interior []refs.Ref, boundary []boundaryCtx, minLevel int) {
	for i := 0; i < 4; i++ {
		childID := id.Child(i)
		childBound := childID.Bound()

		childInterior := append([]refs.Ref{}, interior...)
		var childBoundary []boundaryCtx
		for _, bc := range boundary {
			rel, clipped := cover.ClippedRelate(bc.poly, childBound, bc.edges)
			switch rel {
			case geom.RectInside:
				childInterior = append(childInterior, refs.MakeRef(bc.ref.PolygonID(), true))
			case geom.RectPartial:
				childBoundary = append(childBoundary, boundaryCtx{ref: bc.ref, poly: bc.poly, edges: clipped})
			}
		}

		if len(childBoundary) == 0 && len(childInterior) == 0 {
			continue // child is outside every referenced polygon
		}

		child := &node{}
		n.children[i] = child

		if len(childBoundary) == 0 || childID.Level() >= minLevel {
			// Terminal: pure true-hit cell, or precision bound reached.
			all := childInterior
			for _, bc := range childBoundary {
				all = append(all, bc.ref)
			}
			child.hasCell = true
			child.refs = refs.Normalize(all)
			sc.dir.addRefs(childID, child.refs)
			sc.numCells++
			continue
		}
		sc.splitBoundary(child, childID, childInterior, childBoundary, minLevel)
		if !child.hasCell && !child.hasChildren() {
			// The recursion classified every grandchild as disjoint: no cell
			// materialized, so the node must not stay (see pruneEmptyAt).
			n.children[i] = nil
		}
	}
}
