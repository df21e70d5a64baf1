// Package geom provides the planar geometry substrate used by the whole
// repository: points, rectangles, segments, polygons with holes, the
// point-in-polygon (PIP) test, and the rectangle-polygon relation used to
// classify quadtree cells while computing coverings.
//
// All coordinates are planar longitude/latitude degrees (equirectangular).
// The paper's approach only requires a consistent space partitioning with
// exact containment/intersection predicates over it; city-scale data is
// planar to within GPS noise (see DESIGN.md, substitution table).
package geom

import (
	"fmt"
	"math"
)

// Point is a planar point. X is longitude in degrees, Y latitude in degrees
// (but nothing in this package assumes geographic semantics except the
// metric helpers in meters.go).
type Point struct {
	X, Y float64
}

// Sub returns the vector p - q.
func (p Point) Sub(q Point) Point { return Point{p.X - q.X, p.Y - q.Y} }

// Add returns the vector p + q.
func (p Point) Add(q Point) Point { return Point{p.X + q.X, p.Y + q.Y} }

// Mul returns the scalar product f*p.
func (p Point) Mul(f float64) Point { return Point{p.X * f, p.Y * f} }

// Cross returns the 2D cross product (determinant) of p and q.
func (p Point) Cross(q Point) float64 { return p.X*q.Y - p.Y*q.X }

// Dot returns the dot product of p and q.
func (p Point) Dot(q Point) float64 { return p.X*q.X + p.Y*q.Y }

// Norm returns the Euclidean length of p seen as a vector.
func (p Point) Norm() float64 { return math.Hypot(p.X, p.Y) }

// DistanceTo returns the Euclidean distance between p and q in degrees.
func (p Point) DistanceTo(q Point) float64 { return p.Sub(q).Norm() }

// String formats the point for test output.
func (p Point) String() string { return fmt.Sprintf("(%.6f, %.6f)", p.X, p.Y) }

// Rect is a closed axis-aligned rectangle [Lo.X, Hi.X] x [Lo.Y, Hi.Y].
type Rect struct {
	Lo, Hi Point
}

// EmptyRect returns a rect that contains nothing and acts as the identity
// for Union.
func EmptyRect() Rect {
	return Rect{
		Lo: Point{math.Inf(1), math.Inf(1)},
		Hi: Point{math.Inf(-1), math.Inf(-1)},
	}
}

// RectFromPoints returns the tightest rect containing all pts.
func RectFromPoints(pts ...Point) Rect {
	r := EmptyRect()
	for _, p := range pts {
		r = r.AddPoint(p)
	}
	return r
}

// IsEmpty reports whether r contains no points.
func (r Rect) IsEmpty() bool { return r.Lo.X > r.Hi.X || r.Lo.Y > r.Hi.Y }

// Width returns the X extent of r.
func (r Rect) Width() float64 { return r.Hi.X - r.Lo.X }

// Height returns the Y extent of r.
func (r Rect) Height() float64 { return r.Hi.Y - r.Lo.Y }

// Area returns the area of r (0 for empty rects).
func (r Rect) Area() float64 {
	if r.IsEmpty() {
		return 0
	}
	return r.Width() * r.Height()
}

// Center returns the center point of r.
func (r Rect) Center() Point {
	return Point{(r.Lo.X + r.Hi.X) / 2, (r.Lo.Y + r.Hi.Y) / 2}
}

// Diagonal returns the length of r's diagonal in coordinate units.
func (r Rect) Diagonal() float64 { return r.Lo.DistanceTo(r.Hi) }

// ContainsPoint reports whether p lies in the closed rect r.
func (r Rect) ContainsPoint(p Point) bool {
	return p.X >= r.Lo.X && p.X <= r.Hi.X && p.Y >= r.Lo.Y && p.Y <= r.Hi.Y
}

// ContainsRect reports whether r fully contains o.
func (r Rect) ContainsRect(o Rect) bool {
	if o.IsEmpty() {
		return true
	}
	return o.Lo.X >= r.Lo.X && o.Hi.X <= r.Hi.X && o.Lo.Y >= r.Lo.Y && o.Hi.Y <= r.Hi.Y
}

// Intersects reports whether r and o share at least one point (closed rects,
// so touching edges intersect).
func (r Rect) Intersects(o Rect) bool {
	if r.IsEmpty() || o.IsEmpty() {
		return false
	}
	return r.Lo.X <= o.Hi.X && o.Lo.X <= r.Hi.X && r.Lo.Y <= o.Hi.Y && o.Lo.Y <= r.Hi.Y
}

// AddPoint returns the smallest rect containing both r and p.
//
// AddPoint, Union and Intersection use the builtin min and max, which
// compile inline (Segment.Bound calls AddPoint for every edge a refinement
// descent clips). They agree with math.Min and math.Max on signed zeros,
// infinities and NaN, except that a NaN beats an infinity: max(NaN, +Inf)
// is NaN where math.Max gives +Inf. Coordinates that reach an index are
// finite, so index state never meets that case.
func (r Rect) AddPoint(p Point) Rect {
	return Rect{
		Lo: Point{min(r.Lo.X, p.X), min(r.Lo.Y, p.Y)},
		Hi: Point{max(r.Hi.X, p.X), max(r.Hi.Y, p.Y)},
	}
}

// Union returns the smallest rect containing both r and o.
func (r Rect) Union(o Rect) Rect {
	if r.IsEmpty() {
		return o
	}
	if o.IsEmpty() {
		return r
	}
	return Rect{
		Lo: Point{min(r.Lo.X, o.Lo.X), min(r.Lo.Y, o.Lo.Y)},
		Hi: Point{max(r.Hi.X, o.Hi.X), max(r.Hi.Y, o.Hi.Y)},
	}
}

// Intersection returns the largest rect contained in both r and o; the
// result is empty when they do not intersect.
func (r Rect) Intersection(o Rect) Rect {
	out := Rect{
		Lo: Point{max(r.Lo.X, o.Lo.X), max(r.Lo.Y, o.Lo.Y)},
		Hi: Point{min(r.Hi.X, o.Hi.X), min(r.Hi.Y, o.Hi.Y)},
	}
	if out.IsEmpty() {
		return EmptyRect()
	}
	return out
}

// Vertices returns the four corners of r in counter-clockwise order starting
// from Lo.
func (r Rect) Vertices() [4]Point {
	return [4]Point{
		r.Lo,
		{r.Hi.X, r.Lo.Y},
		r.Hi,
		{r.Lo.X, r.Hi.Y},
	}
}

// String formats the rect for test output.
func (r Rect) String() string {
	return fmt.Sprintf("[%v, %v]", r.Lo, r.Hi)
}
