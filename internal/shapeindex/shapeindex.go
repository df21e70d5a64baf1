// Package shapeindex implements the paper's "SI" competitor, an equivalent
// of Google's S2ShapeIndex: a hierarchical grid over all polygons at once,
// subdivided until each cell holds at most MaxEdgesPerCell polygon edges.
// Each stored cell records, per intersecting polygon, the clipped edge list
// and whether the cell center lies inside the polygon.
//
// A point query locates the cell (via a B-tree over the disjoint cell ids,
// as in S2), then decides containment per polygon by counting proper
// crossings of the segment from the cell center to the query point against
// only the cell-local edges — flipping the recorded center-inside bit per
// crossing. Cells fully inside a polygon carry no edges for it, so such
// queries are answered without any edge test: S2's own (coarser) form of
// true hit filtering, exactly as the paper describes.
//
// The paper evaluates the default configuration of 10 edges per cell (SI10)
// and the finest possible, 1 edge per cell (SI1).
package shapeindex

import (
	"actjoin/internal/btree"
	"actjoin/internal/cellid"
	"actjoin/internal/cellindex"
	"actjoin/internal/cover"
	"actjoin/internal/geom"
	"actjoin/internal/refs"
)

// Options configure index construction.
type Options struct {
	// MaxEdgesPerCell stops subdivision once a cell holds at most this many
	// edges (default 10, S2's default).
	MaxEdgesPerCell int
	// MaxLevel caps subdivision depth (default 20, roughly S2's practical
	// limit). The cap matters: adjacent polygons share coincident boundary
	// edges that no amount of subdivision can separate, so cells straddling
	// shared borders stop here and may exceed the edge budget.
	MaxLevel int
}

// DefaultMaxLevel caps SI subdivision. Level-20 cells are ~15 m at NYC's
// latitude, consistent with the paper's observation that SI's grid is much
// coarser than the super covering.
const DefaultMaxLevel = 20

// DefaultOptions returns the S2 default configuration (SI10).
func DefaultOptions() Options { return Options{MaxEdgesPerCell: 10, MaxLevel: DefaultMaxLevel} }

// FinestOptions returns the most fine-grained configuration (SI1).
func FinestOptions() Options { return Options{MaxEdgesPerCell: 1, MaxLevel: DefaultMaxLevel} }

// polyRecord is one polygon's presence in a cell.
type polyRecord struct {
	polyID       uint32
	centerInside bool
	edges        []geom.Segment
}

// cellRecord is the payload of one stored cell.
type cellRecord struct {
	center geom.Point
	level  int
	polys  []polyRecord
}

// Index is the immutable shape index.
type Index struct {
	locator  *btree.Tree
	records  []cellRecord
	numCells int
	numEdges int // clipped edge instances stored
}

// Build indexes all polygons. Polygon ids are their slice positions.
func Build(polys []*geom.Polygon, opt Options) *Index {
	if opt.MaxEdgesPerCell <= 0 {
		opt.MaxEdgesPerCell = 10
	}
	if opt.MaxLevel <= 0 || opt.MaxLevel > cover.MaxSupportedLevel {
		opt.MaxLevel = DefaultMaxLevel
	}

	x := &Index{}
	var kvs []cellindex.KeyEntry

	for f := 0; f < cellid.NumFaces; f++ {
		face := cellid.FaceCell(f)
		bound := face.Bound()
		var initial []polyRecord
		for i, p := range polys {
			rel, clipped := cover.ClippedRelate(nil, p, bound, cover.Edges(p))
			switch rel {
			case geom.RectInside:
				initial = append(initial, polyRecord{polyID: uint32(i), centerInside: true})
			case geom.RectPartial:
				initial = append(initial, polyRecord{polyID: uint32(i), centerInside: p.ContainsPoint(bound.Center()), edges: clipped})
			}
		}
		if len(initial) > 0 {
			x.subdivide(face, initial, polys, opt, &kvs)
		}
	}

	// kvs were appended in DFS Hilbert order, hence already sorted.
	x.locator = btree.Build(kvs, 0)
	x.numCells = len(kvs)
	return x
}

func totalEdges(recs []polyRecord) int {
	n := 0
	for i := range recs {
		n += len(recs[i].edges)
	}
	return n
}

func (x *Index) subdivide(cell cellid.CellID, recs []polyRecord, polys []*geom.Polygon, opt Options, kvs *[]cellindex.KeyEntry) {
	if totalEdges(recs) <= opt.MaxEdgesPerCell || cell.Level() >= opt.MaxLevel {
		// Store this cell. The record index is encoded (+1) into the
		// B-tree's 8-byte value slot; 0 remains the false-hit sentinel.
		x.records = append(x.records, cellRecord{center: cell.Bound().Center(), level: cell.Level(), polys: recs})
		x.numEdges += totalEdges(recs)
		*kvs = append(*kvs, cellindex.KeyEntry{Key: cell, Entry: refs.Entry(uint64(len(x.records)) << 2)})
		return
	}
	for _, child := range cell.Children() {
		bound := child.Bound()
		center := bound.Center()
		var childRecs []polyRecord
		for i := range recs {
			rec := &recs[i]
			if len(rec.edges) == 0 {
				// Uniform region: polygon covers the whole parent cell.
				childRecs = append(childRecs, polyRecord{polyID: rec.polyID, centerInside: true})
				continue
			}
			var clipped []geom.Segment
			for _, e := range rec.edges {
				if e.IntersectsRect(bound) {
					clipped = append(clipped, e)
				}
			}
			if len(clipped) > 0 {
				childRecs = append(childRecs, polyRecord{
					polyID:       rec.polyID,
					centerInside: polys[rec.polyID].ContainsPoint(center),
					edges:        clipped,
				})
				continue
			}
			// No boundary in the child: present only if fully inside.
			if polys[rec.polyID].ContainsPoint(center) {
				childRecs = append(childRecs, polyRecord{polyID: rec.polyID, centerInside: true})
			}
		}
		if len(childRecs) > 0 {
			x.subdivide(child, childRecs, polys, opt, kvs)
		}
	}
}

// NumCells returns the number of stored grid cells.
func (x *Index) NumCells() int { return x.numCells }

// NumEdges returns the number of clipped edge instances stored.
func (x *Index) NumEdges() int { return x.numEdges }

// SizeBytes estimates the footprint: locator plus records (32 bytes per
// clipped edge, 24 per polygon record, 40 per cell record).
func (x *Index) SizeBytes() int {
	size := x.locator.SizeBytes()
	for i := range x.records {
		size += 40
		for j := range x.records[i].polys {
			size += 24 + 32*len(x.records[i].polys[j].edges)
		}
	}
	return size
}

// Query reports every polygon containing p (exact). leaf must be p's leaf
// cell id. fn is called once per containing polygon, and the returned
// counters give the structural cost: edge tests performed and whether the
// point was answered purely by true-hit filtering (no edge tests).
func (x *Index) Query(leaf cellid.CellID, p geom.Point, fn func(polyID uint32)) (edgeTests int, trueHitOnly bool) {
	e := x.locator.Find(leaf)
	if e.IsFalseHit() {
		return 0, true
	}
	rec := &x.records[uint64(e)>>2-1]
	trueHitOnly = true
	for i := range rec.polys {
		pr := &rec.polys[i]
		if len(pr.edges) == 0 {
			if pr.centerInside {
				fn(pr.polyID)
			}
			continue
		}
		trueHitOnly = false
		inside := pr.centerInside
		for _, edge := range pr.edges {
			edgeTests++
			if properCross(rec.center, p, edge.A, edge.B) {
				inside = !inside
			}
		}
		if inside {
			fn(pr.polyID)
		}
	}
	return edgeTests, trueHitOnly
}

// properCross reports whether segments (a,b) and (c,d) cross at an interior
// point of both. Touching configurations do not count, which keeps the
// parity argument exact for points in general position.
func properCross(a, b, c, d geom.Point) bool {
	d1 := orient(c, d, a)
	d2 := orient(c, d, b)
	d3 := orient(a, b, c)
	d4 := orient(a, b, d)
	return ((d1 > 0 && d2 < 0) || (d1 < 0 && d2 > 0)) &&
		((d3 > 0 && d4 < 0) || (d3 < 0 && d4 > 0))
}

func orient(a, b, c geom.Point) float64 {
	return (b.X-a.X)*(c.Y-a.Y) - (b.Y-a.Y)*(c.X-a.X)
}
