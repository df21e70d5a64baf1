package geom

import (
	"errors"
	"fmt"
	"math"
)

// Ring is a closed polyline: consecutive vertices are connected, and the
// last vertex connects back to the first. The closing vertex must not be
// repeated.
type Ring []Point

// Edge returns the i-th edge of the ring (0 <= i < len(r)).
func (r Ring) Edge(i int) Segment {
	j := i + 1
	if j == len(r) {
		j = 0
	}
	return Segment{r[i], r[j]}
}

// Bound returns the bounding rect of the ring.
func (r Ring) Bound() Rect {
	b := EmptyRect()
	for _, p := range r {
		b = b.AddPoint(p)
	}
	return b
}

// SignedArea returns the signed area of the ring (positive when the
// vertices are in counter-clockwise order).
func (r Ring) SignedArea() float64 {
	var a float64
	for i, p := range r {
		q := r[(i+1)%len(r)]
		a += p.Cross(q)
	}
	return a / 2
}

// Polygon is a polygon with optional holes. Rings[0] is the outer boundary;
// any further rings are holes. Point containment follows the even-odd rule
// over all rings, which matches the ST_Covers semantics the paper adopts for
// well-formed inputs (holes strictly inside the shell, no self-intersection).
//
// NewPolygon copies the rings into one flat vertex array and indexes their
// edges; Rings are views into that array and must not be mutated.
type Polygon struct {
	Rings []Ring

	bound    Rect
	numEdges int

	// verts holds every ring's vertices followed by that ring's first
	// vertex again, so each edge is a pair verts[k], verts[k+1] named by
	// its start index k, in the ring's own orientation.
	verts []Point

	// The band index: the bound's Y range cut into equal horizontal bands,
	// in CSR form. bandEdges lists, band by band, the start index of every
	// edge (of any ring) whose [minY, maxY] overlaps the band; band b's
	// edges are bandEdges[bandStart[b]:bandStart[b+1]]. A horizontal line
	// y = c meets only edges listed in band(c), so the PIP test and the
	// rect relation scan one band instead of every ring.
	bandScale float64 // bands per unit of Y
	bandStart []int32
	bandEdges []int32
}

// NewPolygon builds a polygon from an outer ring and optional holes, and
// precomputes its bounding rect and band index. It returns an error for
// rings with fewer than three vertices.
func NewPolygon(rings ...Ring) (*Polygon, error) {
	if len(rings) == 0 {
		return nil, errors.New("geom: polygon needs at least one ring")
	}
	p := &Polygon{Rings: make([]Ring, len(rings)), bound: EmptyRect()}
	for i, r := range rings {
		if len(r) < 3 {
			return nil, fmt.Errorf("geom: ring %d has %d vertices, need >= 3", i, len(r))
		}
		p.numEdges += len(r)
	}
	p.verts = make([]Point, 0, p.numEdges+len(rings))
	for i, r := range rings {
		k := len(p.verts)
		p.verts = append(p.verts, r...)
		p.Rings[i] = p.verts[k:len(p.verts):len(p.verts)]
		p.verts = append(p.verts, r[0])
		p.bound = p.bound.Union(r.Bound())
	}
	p.buildBands()
	return p, nil
}

// maxBandEntriesPerEdge caps the band index at about this many entries per
// edge. An edge is listed in every band it spans, so a ring of n edges that
// each span the full height (a zigzag) would otherwise cost n² entries.
const maxBandEntriesPerEdge = 8

// buildBands builds the band index. The band count is the edge count, so a
// band holds O(1) edges on average for rings whose edges are short, and
// fewer bands are used only when tall edges would overrun the entry cap. A
// bound without a positive finite height gets one band holding every edge.
func (p *Polygon) buildBands() {
	nb := p.numEdges
	h := p.bound.Height()
	if !(h > 0) || math.IsInf(h, 1) {
		nb = 1
	} else {
		// Each edge lands in about span*nb + 1 bands.
		var span float64
		p.eachEdge(func(k int) { span += math.Abs(p.verts[k+1].Y-p.verts[k].Y) / h })
		if limit := maxBandEntriesPerEdge * float64(p.numEdges); float64(nb)*span > limit {
			nb = max(1, int(limit/span))
		}
	}
	p.bandScale = float64(nb) / h
	p.bandStart = make([]int32, nb+1)

	// Two passes, counting sort style: count each band's edges, then place
	// them. Within a band, edges keep ring-major order.
	p.eachEdge(func(k int) {
		lo, hi := p.edgeBands(k)
		for b := lo; b <= hi; b++ {
			p.bandStart[b+1]++
		}
	})
	for b := 1; b <= nb; b++ {
		p.bandStart[b] += p.bandStart[b-1]
	}
	p.bandEdges = make([]int32, p.bandStart[nb])
	next := append([]int32(nil), p.bandStart[:nb]...)
	p.eachEdge(func(k int) {
		lo, hi := p.edgeBands(k)
		for b := lo; b <= hi; b++ {
			p.bandEdges[next[b]] = int32(k)
			next[b]++
		}
	})
}

// eachEdge calls f with the start index in verts of every edge, in
// ring-major order.
func (p *Polygon) eachEdge(f func(k int)) {
	k := 0
	for _, r := range p.Rings {
		for end := k + len(r); k < end; k++ {
			f(k)
		}
		k++ // the ring's closing vertex starts no edge
	}
}

// edgeBands returns the first and last band the edge starting at verts[k]
// is listed in.
func (p *Polygon) edgeBands(k int) (lo, hi int) {
	lo, hi = p.band(p.verts[k].Y), p.band(p.verts[k+1].Y)
	if lo > hi {
		lo, hi = hi, lo
	}
	return lo, hi
}

// band returns the band holding y. It is monotone in y, so an edge with
// minY <= y <= maxY is listed in band(y). The product is clamped before the
// int conversion: y below the bound, a NaN product (a subnormal height
// makes bandScale +Inf, and y == bound.Lo.Y then gives 0·Inf) and y at or
// past bound.Hi.Y all land in the first or last band.
func (p *Polygon) band(y float64) int {
	f := (y - p.bound.Lo.Y) * p.bandScale
	last := len(p.bandStart) - 2
	if !(f > 0) {
		return 0
	}
	if f >= float64(last) {
		return last
	}
	return int(f)
}

// bandRange returns the start indices of the edges listed in bands lo
// through hi.
func (p *Polygon) bandRange(lo, hi int) []int32 {
	return p.bandEdges[p.bandStart[lo]:p.bandStart[hi+1]]
}

// MustPolygon is NewPolygon that panics on invalid input; intended for
// tests and generators with known-good data.
func MustPolygon(rings ...Ring) *Polygon {
	p, err := NewPolygon(rings...)
	if err != nil {
		panic(err)
	}
	return p
}

// Bound returns the precomputed minimum bounding rectangle (MBR).
func (p *Polygon) Bound() Rect { return p.bound }

// NumEdges returns the total edge count across all rings. The paper's PIP
// cost model is linear in this number.
func (p *Polygon) NumEdges() int { return p.numEdges }

// NumVertices returns the total vertex count across all rings.
func (p *Polygon) NumVertices() int { return p.numEdges }

// Edge returns the i-th edge in ring-major order (0 <= i < NumEdges()).
func (p *Polygon) Edge(i int) Segment {
	for _, r := range p.Rings {
		if i < len(r) {
			return r.Edge(i)
		}
		i -= len(r)
	}
	panic("geom: edge index out of range")
}

// ContainsPoint is the point-in-polygon (PIP) test: the ray-crossing
// algorithm described in Section 2 of the paper, with the even-odd parity
// taken over all rings at once. An edge crosses the line y = pt.Y only if
// minY <= pt.Y < maxY, so only the edges in pt's band are tested: O(1)
// edges per test for rings of short edges, instead of O(NumEdges).
//
//act:hotpath
func (p *Polygon) ContainsPoint(pt Point) bool {
	if !p.bound.ContainsPoint(pt) {
		return false
	}
	b := p.band(pt.Y)
	inside := false
	v := p.verts
	for _, k := range p.bandRange(b, b) {
		if (Segment{v[k], v[k+1]}).CrossesVertical(pt) {
			inside = !inside
		}
	}
	return inside
}

// Area returns the area of the polygon (outer area minus holes), assuming
// well-formed rings.
func (p *Polygon) Area() float64 {
	var a float64
	for i, r := range p.Rings {
		ra := r.SignedArea()
		if ra < 0 {
			ra = -ra
		}
		if i == 0 {
			a += ra
		} else {
			a -= ra
		}
	}
	return a
}

// AppendEdgesInRect appends to dst every edge of the polygon that shares a
// point with the closed rect r, once each, and returns the extended slice.
// Like RelateRect it scans only the bands r spans. An edge listed in several
// of them is tested and emitted only in the first scanned band that lists
// it: the lowest of its own bands, or r's lowest band when the edge starts
// below it. Edges come out band by band, in ring-major order within a band.
// There is no bound pre-check: a rect beside the bound scans its clamped
// bands and finds nothing, and the result is the same edge set as testing
// every edge, even for a bound that is not finite.
//
// With RelateRect's rule this gives the relation and the edges a refinement
// descent clips from in one pass: r is partial when any edge comes back,
// and otherwise inside or disjoint as ContainsPoint(r.Center()) says.
//
//act:hotpath
func (p *Polygon) AppendEdgesInRect(dst []Segment, r Rect) []Segment {
	v := p.verts
	lo, hi := p.band(r.Lo.Y), p.band(r.Hi.Y)
	for b := lo; b <= hi; b++ {
		for _, k := range p.bandRange(b, b) {
			if b > lo && p.band(min(v[k].Y, v[k+1].Y)) < b {
				continue // listed in band b-1 too, so already tested there
			}
			if e := (Segment{v[k], v[k+1]}); e.IntersectsRect(r) {
				dst = append(dst, e)
			}
		}
	}
	return dst
}

// RectRelation classifies how the closed rect r relates to the polygon
// region. It is the predicate that drives covering construction, precision
// refinement and training in the paper.
type RectRelation int

const (
	// RectDisjoint: the rect shares no point with the polygon.
	RectDisjoint RectRelation = iota
	// RectPartial: the polygon boundary passes through the rect (a cell
	// with this relation becomes a boundary / candidate-hit cell).
	RectPartial
	// RectInside: the rect lies entirely in the polygon interior (a cell
	// with this relation becomes an interior / true-hit cell).
	RectInside
)

// String names the relation for test output.
func (rr RectRelation) String() string {
	switch rr {
	case RectDisjoint:
		return "disjoint"
	case RectPartial:
		return "partial"
	case RectInside:
		return "inside"
	}
	return fmt.Sprintf("RectRelation(%d)", int(rr))
}

// RelateRect computes the RectRelation of rect with respect to the polygon.
//
// The logic: if any polygon edge intersects the rect, the boundary passes
// through it (partial). Otherwise the rect is entirely on one side of the
// boundary, so testing the rect center decides between inside and disjoint.
// (The case "polygon strictly inside rect" implies a boundary point inside
// the rect and is therefore already classified partial.) An edge that meets
// the rect has a point with Y in [rect.Lo.Y, rect.Hi.Y], so only the bands
// spanning that range are scanned; an edge listed in several of them may be
// tested more than once.
//
//act:hotpath
func (p *Polygon) RelateRect(rect Rect) RectRelation {
	if !p.bound.Intersects(rect) {
		return RectDisjoint
	}
	v := p.verts
	for _, k := range p.bandRange(p.band(rect.Lo.Y), p.band(rect.Hi.Y)) {
		if (Segment{v[k], v[k+1]}).IntersectsRect(rect) {
			return RectPartial
		}
	}
	if p.ContainsPoint(rect.Center()) {
		return RectInside
	}
	return RectDisjoint
}
