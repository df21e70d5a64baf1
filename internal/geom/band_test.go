package geom

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// The reference kernels: the PIP test and rect relation as they were before
// the band index, scanning every edge of every ring. The band index must
// reproduce their answers bit for bit.

// containsPoint reports whether p is inside the ring region using the
// ray-crossing (even-odd) rule.
func (r Ring) containsPoint(p Point) bool {
	inside := false
	n := len(r)
	for i := 0; i < n; i++ {
		if (Segment{r[i], r[(i+1)%n]}).CrossesVertical(p) {
			inside = !inside
		}
	}
	return inside
}

func containsPointRef(p *Polygon, pt Point) bool {
	if !p.bound.ContainsPoint(pt) {
		return false
	}
	inside := false
	for _, r := range p.Rings {
		if r.containsPoint(pt) {
			inside = !inside
		}
	}
	return inside
}

func relateRectRef(p *Polygon, rect Rect) RectRelation {
	if !p.bound.Intersects(rect) {
		return RectDisjoint
	}
	for _, ring := range p.Rings {
		if !ring.Bound().Intersects(rect) {
			continue
		}
		for i := range ring {
			if ring.Edge(i).IntersectsRect(rect) {
				return RectPartial
			}
		}
	}
	if containsPointRef(p, rect.Center()) {
		return RectInside
	}
	return RectDisjoint
}

// refPolygons are the differential fixtures: the shapes whose edge cases
// the band index must get right.
func refPolygons() map[string]*Polygon {
	rng := rand.New(rand.NewSource(15))
	star := make(Ring, 2000)
	for i := range star {
		a := 2 * math.Pi * float64(i) / float64(len(star))
		rad := 1 + 0.2*math.Sin(9*a) + 1e-4*rng.Float64()
		star[i] = Point{-73.9 + 0.01*rad*math.Cos(a), 40.7 + 0.01*rad*math.Sin(a)}
	}
	zigzag := Ring{{0, 0}}
	for i := 1; i <= 200; i++ {
		zigzag = append(zigzag, Point{float64(i), float64(10 * (i % 2))})
	}
	zigzag = append(zigzag, Point{200, -1}, Point{0, -1})
	tiny := math.SmallestNonzeroFloat64
	return map[string]*Polygon{
		"triangle": MustPolygon(Ring{{0, 0}, {4, 1}, {1, 3}}),
		// Horizontal top and bottom edges, and a horizontal notch floor.
		"notch": MustPolygon(Ring{{0, 0}, {6, 0}, {6, 4}, {4, 4}, {4, 2}, {2, 2}, {2, 4}, {0, 4}}),
		// Hole touching the shell at a vertex and along part of an edge.
		"hole-touching": MustPolygon(
			Ring{{0, 0}, {10, 0}, {10, 10}, {0, 10}},
			Ring{{0, 0}, {5, 2}, {5, 5}, {2, 5}},
			Ring{{6, 10}, {8, 10}, {7, 7}},
		),
		"spike":      MustPolygon(Ring{{0, 0}, {10, 0}, {10, 2}, {5.01, 2}, {5, 10}, {4.99, 2}, {0, 2}}),
		"star-2000":  MustPolygon(star),
		"zigzag":     MustPolygon(zigzag),
		"flat":       MustPolygon(Ring{{0, 1}, {1, 1}, {3, 1}}),
		"subnormal":  MustPolygon(Ring{{0, 0}, {1, tiny}, {2, 0}}),
		"subnormal2": MustPolygon(Ring{{0, -tiny}, {1, tiny}, {2, 0}, {1, -tiny}}),
		"huge":       MustPolygon(Ring{{0, -math.MaxFloat64}, {1, math.MaxFloat64}, {2, 0}}),
		"inf":        MustPolygon(Ring{{0, 0}, {1, math.Inf(1)}, {2, 0}}),
		"nan":        MustPolygon(Ring{{0, 0}, {1, math.NaN()}, {2, 0}}),
	}
}

// probePoints returns points on every vertex, on every edge, on horizontal
// lines through every vertex, on band boundaries and their Nextafter
// neighbours, at non-finite coordinates, and at random around the bound.
func probePoints(p *Polygon, rng *rand.Rand, random int) []Point {
	b := p.Bound()
	w, h := b.Width(), b.Height()
	var pts []Point
	xs := []float64{b.Lo.X, b.Hi.X, (b.Lo.X + b.Hi.X) / 2}
	for _, r := range p.Rings {
		for i := range r {
			e := r.Edge(i)
			t := rng.Float64()
			pts = append(pts, e.A, e.A.Add(e.B).Mul(0.5),
				Point{e.A.X + t*(e.B.X-e.A.X), e.A.Y + t*(e.B.Y-e.A.Y)})
			for _, x := range append(xs, e.A.X, e.A.X+rng.Float64()*w) {
				pts = append(pts, Point{x, e.A.Y},
					Point{x, math.Nextafter(e.A.Y, math.Inf(1))},
					Point{x, math.Nextafter(e.A.Y, math.Inf(-1))})
			}
		}
	}
	nb := len(p.bandStart) - 1
	for k := 0; k <= nb; k++ {
		y := b.Lo.Y + float64(k)*h/float64(nb)
		if p.bandScale > 0 && !math.IsInf(p.bandScale, 0) {
			y = b.Lo.Y + float64(k)/p.bandScale
		}
		for _, yy := range []float64{y, math.Nextafter(y, math.Inf(1)), math.Nextafter(y, math.Inf(-1))} {
			pts = append(pts, Point{b.Lo.X + rng.Float64()*w, yy})
		}
	}
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		pts = append(pts, Point{v, b.Lo.Y}, Point{b.Lo.X, v}, Point{v, v})
	}
	pts = append(pts, b.Lo, b.Hi, Point{b.Lo.X, b.Hi.Y}, Point{b.Hi.X, b.Lo.Y})
	for i := 0; i < random; i++ {
		pts = append(pts, Point{b.Lo.X - 0.1*w + 1.2*w*rng.Float64(), b.Lo.Y - 0.1*h + 1.2*h*rng.Float64()})
	}
	return pts
}

func TestContainsPointMatchesRef(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for name, p := range refPolygons() {
		for _, pt := range probePoints(p, rng, 5000) {
			if got, want := p.ContainsPoint(pt), containsPointRef(p, pt); got != want {
				t.Fatalf("%s: ContainsPoint(%v) = %v, reference %v", name, pt, got, want)
			}
		}
	}
}

// refRects returns the rects the differential tests relate to p: point
// rects on probe points, rects spanning one probe to the next (straddling
// vertices, edges and band boundaries), small squares, and rects around,
// beside and above the bound, with infinite, NaN and empty ones.
func refRects(p *Polygon, rng *rand.Rand) []Rect {
	b := p.Bound()
	w, h := b.Width(), b.Height()
	pts := probePoints(p, rng, 500)
	if len(pts) > 3000 {
		// The reference relation costs O(NumEdges) per rect.
		rng.Shuffle(len(pts), func(i, j int) { pts[i], pts[j] = pts[j], pts[i] })
		pts = pts[:3000]
	}
	var rects []Rect
	for i, q := range pts {
		// Degenerate (point) rects, and rects spanning from a probe to
		// the next: these straddle vertices, edges and band boundaries.
		rects = append(rects, Rect{q, q}, RectFromPoints(q, pts[(i+1)%len(pts)]))
		s := rng.Float64() * 0.05 * math.Max(w, h)
		rects = append(rects, Rect{q, Point{q.X + s, q.Y + s}})
	}
	rects = append(rects,
		b, // the bound itself
		Rect{b.Lo.Sub(Point{1, 1}), b.Hi.Add(Point{1, 1})},         // containing the polygon
		Rect{Point{b.Hi.X + 1, b.Lo.Y}, Point{b.Hi.X + 2, b.Hi.Y}}, // beside it
		Rect{Point{b.Lo.X, b.Hi.Y + 1}, Point{b.Hi.X, b.Hi.Y + 2}}, // above it
		Rect{Point{b.Lo.X, math.Inf(-1)}, Point{b.Hi.X, math.Inf(1)}},
		Rect{Point{math.NaN(), b.Lo.Y}, b.Hi},
		EmptyRect(),
	)
	return rects
}

func TestRelateRectMatchesRef(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for name, p := range refPolygons() {
		for _, r := range refRects(p, rng) {
			if got, want := p.RelateRect(r), relateRectRef(p, r); got != want {
				t.Fatalf("%s: RelateRect(%v) = %v, reference %v", name, r, got, want)
			}
		}
	}
}

// segmentKeys returns the bit patterns of the segments' coordinates,
// sorted: a multiset key that also compares NaN coordinates.
func segmentKeys(segs []Segment) [][4]uint64 {
	keys := make([][4]uint64, len(segs))
	for i, s := range segs {
		keys[i] = [4]uint64{math.Float64bits(s.A.X), math.Float64bits(s.A.Y), math.Float64bits(s.B.X), math.Float64bits(s.B.Y)}
	}
	sort.Slice(keys, func(i, j int) bool {
		for k := range keys[i] {
			if keys[i][k] != keys[j][k] {
				return keys[i][k] < keys[j][k]
			}
		}
		return false
	})
	return keys
}

// TestAppendEdgesInRectMatchesScan checks the banded edge clip against a
// scan of every edge: the same edges, each exactly once.
func TestAppendEdgesInRectMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for name, p := range refPolygons() {
		for _, r := range refRects(p, rng) {
			var want []Segment
			for i := 0; i < p.NumEdges(); i++ {
				if e := p.Edge(i); e.IntersectsRect(r) {
					want = append(want, e)
				}
			}
			got := p.AppendEdgesInRect(nil, r)
			if !reflect.DeepEqual(segmentKeys(got), segmentKeys(want)) {
				t.Fatalf("%s: AppendEdgesInRect(%v) = %d edges %v, scan %d edges %v", name, r, len(got), got, len(want), want)
			}
		}
	}
}

// TestBandClamps checks that band lands in a valid band for the inputs
// that stress its float arithmetic, and that it is monotone.
func TestBandClamps(t *testing.T) {
	for name, p := range refPolygons() {
		last := len(p.bandStart) - 2
		b := p.Bound()
		ys := []float64{math.Inf(-1), -math.MaxFloat64, b.Lo.Y, math.Nextafter(b.Lo.Y, math.Inf(1)),
			(b.Lo.Y + b.Hi.Y) / 2, math.Nextafter(b.Hi.Y, math.Inf(-1)), b.Hi.Y, math.MaxFloat64, math.Inf(1)}
		sort.Float64s(ys)
		prev := 0
		for _, y := range ys {
			k := p.band(y)
			if k < 0 || k > last {
				t.Fatalf("%s: band(%v) = %d, outside [0, %d]", name, y, k, last)
			}
			if k < prev {
				t.Fatalf("%s: band(%v) = %d after %d: not monotone", name, y, k, prev)
			}
			prev = k
		}
		if k := p.band(math.NaN()); k < 0 || k > last {
			t.Fatalf("%s: band(NaN) = %d, outside [0, %d]", name, k, last)
		}
	}
	if p := MustPolygon(Ring{{0, 1}, {1, 1}, {3, 1}}); len(p.bandStart) != 2 {
		t.Errorf("zero-height bound has %d bands, want 1", len(p.bandStart)-1)
	}
	if p := refPolygons()["star-2000"]; len(p.bandStart)-1 != p.NumEdges() {
		t.Errorf("star has %d bands, want NumEdges() = %d", len(p.bandStart)-1, p.NumEdges())
	}
	// A zigzag's tall edges would list every edge in every band; the cap
	// keeps the index linear in the edge count.
	if z := refPolygons()["zigzag"]; len(z.bandEdges) > (maxBandEntriesPerEdge+2)*z.NumEdges() {
		t.Errorf("zigzag band index has %d entries for %d edges", len(z.bandEdges), z.NumEdges())
	}
}

// fuzzPolygon decodes rings from bytes: each pair is an (x, y) vertex on a
// small integer grid, so vertices, edges and horizontal runs coincide with
// probe coordinates often; the byte 0x80 starts a new ring.
func fuzzPolygon(data []byte) (*Polygon, error) {
	var rings []Ring
	var cur Ring
	for i := 0; i+1 < len(data); i += 2 {
		if data[i] == 0x80 {
			rings = append(rings, cur)
			cur = nil
			i--
			continue
		}
		cur = append(cur, Point{float64(int8(data[i])), float64(int8(data[i+1]))})
	}
	rings = append(rings, cur)
	return NewPolygon(rings...)
}

// FuzzContainsPoint compares the banded PIP test with the reference on
// fuzzed rings and probe points, including every horizontal line through a
// vertex (the half-open crossing rule's edge case); the seed corpus in
// testdata/fuzz/FuzzContainsPoint holds vertex hits, band boundaries, holes
// and non-finite coordinates.
func FuzzContainsPoint(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte, x, y float64) {
		p, err := fuzzPolygon(data)
		if err != nil {
			return
		}
		pts := []Point{{x, y}, {math.Round(x), math.Round(y)}}
		for _, r := range p.Rings {
			for _, v := range r {
				pts = append(pts, Point{x, v.Y}, v)
			}
		}
		for _, pt := range pts {
			if got, want := p.ContainsPoint(pt), containsPointRef(p, pt); got != want {
				t.Fatalf("ContainsPoint(%v) = %v, reference %v", pt, got, want)
			}
		}
		r := RectFromPoints(Point{x, y}, p.Rings[0][0])
		if got, want := p.RelateRect(r), relateRectRef(p, r); got != want {
			t.Fatalf("RelateRect(%v) = %v, reference %v", r, got, want)
		}
	})
}
