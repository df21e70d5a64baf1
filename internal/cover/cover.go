// Package cover computes quadtree-cell approximations of individual
// polygons: the covering (cells that intersect the polygon, blue in Figure 2
// of the paper) and the interior covering (cells fully inside the polygon,
// green in Figure 2). These are the inputs to the super covering (Listing 1).
//
// The algorithm follows the S2 RegionCoverer design: starting from the face
// cells, repeatedly subdivide the coarsest cell that still intersects the
// polygon boundary, within a MaxCells budget and a MaxLevel depth bound.
package cover

import (
	"container/heap"

	"actjoin/internal/cellid"
	"actjoin/internal/geom"
)

// Options control covering construction. The zero value is not useful; use
// the Default* functions, which encode the paper's configuration
// ("max covering cells = 128, max covering level = 30, max interior cells =
// 256, max interior level = 20" — our level cap is 28, see DESIGN.md).
type Options struct {
	// MaxCells is the approximate maximum number of cells returned. The
	// result can exceed it only when a single cell's four children are being
	// emitted at the very end of the budget (as in S2).
	MaxCells int
	// MaxLevel bounds the subdivision depth.
	MaxLevel int
	// MinLevel, when positive, forces cells coarser than it to subdivide
	// even if already terminal.
	MinLevel int
}

// MaxSupportedLevel is the deepest level coverings may use: the deepest
// level that is a multiple of every supported ACT granularity (1, 2, 4).
const MaxSupportedLevel = 28

// DefaultCoveringOptions returns the paper's default configuration for
// boundary coverings.
func DefaultCoveringOptions() Options {
	return Options{MaxCells: 128, MaxLevel: MaxSupportedLevel}
}

// DefaultInteriorOptions returns the paper's default configuration for
// interior coverings.
func DefaultInteriorOptions() Options {
	return Options{MaxCells: 256, MaxLevel: 20}
}

// candidate is a heap entry: a cell that intersects the polygon and may be
// subdivided further.
type candidate struct {
	cell     cellid.CellID
	level    int
	terminal bool // fully inside the polygon
}

// candidateHeap orders candidates coarsest-first so the largest cells are
// subdivided before the budget runs out.
type candidateHeap []candidate

func (h candidateHeap) Len() int            { return len(h) }
func (h candidateHeap) Less(i, j int) bool  { return h[i].level < h[j].level }
func (h candidateHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *candidateHeap) Push(x interface{}) { *h = append(*h, x.(candidate)) }
func (h *candidateHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// Covering returns cells that together contain every point of the polygon.
// Cells fully inside the polygon are kept as-is; boundary cells are refined
// until the MaxCells budget or MaxLevel is reached. The result is sorted and
// free of conflicts (no cell contains another).
func Covering(poly *geom.Polygon, opt Options) []cellid.CellID {
	return run(poly, opt, false)
}

// InteriorCovering returns cells that are all fully contained in the
// polygon. Boundary cells are subdivided within the budget; whatever
// remains partial at the end is dropped, so the result under-approximates
// the polygon. The result is sorted and conflict-free.
func InteriorCovering(poly *geom.Polygon, opt Options) []cellid.CellID {
	return run(poly, opt, true)
}

func run(poly *geom.Polygon, opt Options, interior bool) []cellid.CellID {
	if opt.MaxCells <= 0 {
		opt.MaxCells = 8
	}
	if opt.MaxLevel <= 0 || opt.MaxLevel > MaxSupportedLevel {
		opt.MaxLevel = MaxSupportedLevel
	}

	var result []cellid.CellID
	h := &candidateHeap{}

	consider := func(c cellid.CellID) {
		switch poly.RelateRect(c.Bound()) {
		case geom.RectInside:
			heap.Push(h, candidate{cell: c, level: c.Level(), terminal: true})
		case geom.RectPartial:
			heap.Push(h, candidate{cell: c, level: c.Level(), terminal: false})
		}
	}

	for f := 0; f < cellid.NumFaces; f++ {
		consider(cellid.FaceCell(f))
	}

	for h.Len() > 0 {
		cand := heap.Pop(h).(candidate)
		mustSplit := cand.level < opt.MinLevel
		if cand.terminal && !mustSplit {
			result = append(result, cand.cell)
			continue
		}
		if cand.level >= opt.MaxLevel {
			if !interior {
				result = append(result, cand.cell) // boundary cell at max depth
			}
			continue
		}
		// Splitting replaces one candidate with up to four: stop when the
		// budget cannot absorb that.
		if !mustSplit && len(result)+h.Len()+4 > opt.MaxCells {
			if !interior {
				result = append(result, cand.cell)
			}
			continue
		}
		for _, child := range cand.cell.Children() {
			consider(child)
		}
	}

	cellid.SortCellIDs(result)
	return result
}

// ClippedRelate classifies rect against poly, given `edges` — a superset of
// the polygon edges that can possibly intersect rect (typically the clipped
// edge set of rect's parent cell). It appends the subset of edges
// intersecting rect to dst, for further descent, and returns the relation
// with the extended slice: rect is partial exactly when an edge was
// appended. Appending lets a descent keep every level's edge sets on one
// reused stack.
//
// This incremental form makes deep refinement affordable: the edge set
// shrinks geometrically during descent, and the full O(n) PIP test is needed
// only when a rect has no nearby boundary at all.
func ClippedRelate(dst []geom.Segment, poly *geom.Polygon, rect geom.Rect, edges []geom.Segment) (geom.RectRelation, []geom.Segment) {
	n := len(dst)
	for _, e := range edges {
		if e.IntersectsRect(rect) {
			dst = append(dst, e)
		}
	}
	switch {
	case len(dst) > n:
		return geom.RectPartial, dst
	case poly.ContainsPoint(rect.Center()):
		return geom.RectInside, dst
	}
	return geom.RectDisjoint, dst
}

// Edges returns all edges of the polygon as a flat slice, the starting edge
// set for ClippedRelate descents.
func Edges(poly *geom.Polygon) []geom.Segment {
	out := make([]geom.Segment, 0, poly.NumEdges())
	for _, ring := range poly.Rings {
		for i := range ring {
			out = append(out, ring.Edge(i))
		}
	}
	return out
}
