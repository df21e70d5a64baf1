package geom

// Segment is a closed line segment between A and B.
type Segment struct {
	A, B Point
}

// orientation classifiers for the sign of the cross product (b-a) x (c-a).
func orient(a, b, c Point) float64 {
	return (b.X-a.X)*(c.Y-a.Y) - (b.Y-a.Y)*(c.X-a.X)
}

// onSegment reports whether c, already known to be collinear with the
// segment (a, b), lies within its bounding box.
func onSegment(a, b, c Point) bool {
	return minf(a.X, b.X) <= c.X && c.X <= maxf(a.X, b.X) &&
		minf(a.Y, b.Y) <= c.Y && c.Y <= maxf(a.Y, b.Y)
}

func minf(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// Intersects reports whether segments s and t share at least one point
// (including endpoints and collinear overlap).
func (s Segment) Intersects(t Segment) bool {
	d1 := orient(t.A, t.B, s.A)
	d2 := orient(t.A, t.B, s.B)
	d3 := orient(s.A, s.B, t.A)
	d4 := orient(s.A, s.B, t.B)

	if ((d1 > 0 && d2 < 0) || (d1 < 0 && d2 > 0)) &&
		((d3 > 0 && d4 < 0) || (d3 < 0 && d4 > 0)) {
		return true
	}
	if d1 == 0 && onSegment(t.A, t.B, s.A) {
		return true
	}
	if d2 == 0 && onSegment(t.A, t.B, s.B) {
		return true
	}
	if d3 == 0 && onSegment(s.A, s.B, t.A) {
		return true
	}
	if d4 == 0 && onSegment(s.A, s.B, t.B) {
		return true
	}
	return false
}

// Bound returns the bounding rect of s.
func (s Segment) Bound() Rect { return EmptyRect().AddPoint(s.A).AddPoint(s.B) }

// IntersectsRect reports whether the segment shares at least one point with
// the closed rect r. A segment entirely inside r intersects it.
//
//act:hotpath
func (s Segment) IntersectsRect(r Rect) bool {
	if !s.Bound().Intersects(r) {
		return false
	}
	if r.ContainsPoint(s.A) || r.ContainsPoint(s.B) {
		return true
	}
	// Neither endpoint inside: the segment intersects the rect iff it
	// crosses one of the rect's edges.
	v := r.Vertices()
	for i := 0; i < 4; i++ {
		if s.Intersects(Segment{v[i], v[(i+1)%4]}) {
			return true
		}
	}
	return false
}

// CrossesVertical reports whether the open segment crosses the vertical ray
// going right from p, using the standard half-open rule of the ray-crossing
// PIP test: the edge counts when one endpoint is strictly above p.Y and the
// other is at or below it, and the crossing point is strictly right of p.
func (s Segment) CrossesVertical(p Point) bool {
	a, b := s.A, s.B
	if (a.Y > p.Y) == (b.Y > p.Y) {
		return false
	}
	// X coordinate where the segment crosses the horizontal line y = p.Y.
	x := a.X + (p.Y-a.Y)/(b.Y-a.Y)*(b.X-a.X)
	return x > p.X
}
