package supercover

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"actjoin/internal/cellid"
	"actjoin/internal/cover"
	"actjoin/internal/dataset"
	"actjoin/internal/geom"
)

// Band-seeded refinement must classify every cell exactly as a
// ClippedRelate descent from the polygon's full edge list would: the same
// relation and, for partial cells, the same clipped edge set (the order may
// differ; the descent below only filters it).

// seedShapes are the polygons the seed tests relate rects to: the golden
// covering shapes of internal/cover, random polygons with holes, horizontal
// edges, a zero-height ring (one band), a lat-88 triangle and a sliver.
func seedShapes() []struct {
	name string
	poly *geom.Polygon
} {
	rng := rand.New(rand.NewSource(18))
	shapes := []struct {
		name string
		poly *geom.Polygon
	}{
		{"square", geom.MustPolygon(geom.Ring{
			{X: -73.99, Y: 40.73}, {X: -73.97, Y: 40.73}, {X: -73.97, Y: 40.75}, {X: -73.99, Y: 40.75},
		})},
		{"spike", geom.MustPolygon(geom.Ring{
			{X: -74.00, Y: 40.70}, {X: -73.96, Y: 40.70}, {X: -73.96, Y: 40.74},
			{X: -73.979, Y: 40.74}, {X: -73.98, Y: 40.7005}, {X: -73.981, Y: 40.74},
			{X: -74.00, Y: 40.74},
		})},
		{"hole", geom.MustPolygon(
			geom.Ring{{X: -74, Y: 40.7}, {X: -73.9, Y: 40.7}, {X: -73.9, Y: 40.8}, {X: -74, Y: 40.8}},
			geom.Ring{{X: -73.97, Y: 40.73}, {X: -73.93, Y: 40.73}, {X: -73.93, Y: 40.77}, {X: -73.97, Y: 40.77}},
		)},
		{"seam", geom.MustPolygon(geom.Ring{
			{X: -60.05, Y: 10}, {X: -59.95, Y: 10}, {X: -59.95, Y: 10.1}, {X: -60.05, Y: 10.1},
		})},
		{"neighborhood", dataset.NYCNeighborhoods(dataset.ScaleTiny).Generate()[14]},
		{"notch", geom.MustPolygon(geom.Ring{
			{X: 0, Y: 0}, {X: 0.6, Y: 0}, {X: 0.6, Y: 0.4}, {X: 0.4, Y: 0.4},
			{X: 0.4, Y: 0.2}, {X: 0.2, Y: 0.2}, {X: 0.2, Y: 0.4}, {X: 0, Y: 0.4},
		})},
		{"flat", geom.MustPolygon(geom.Ring{{X: 5, Y: 1}, {X: 5.1, Y: 1}, {X: 5.3, Y: 1}})},
		{"lat88", geom.MustPolygon(geom.Ring{{X: 10, Y: 88}, {X: 10.5, Y: 88}, {X: 10.2, Y: 88.3}})},
		{"sliver", geom.MustPolygon(geom.Ring{{X: -73.99, Y: 40.73}, {X: -73.9, Y: 40.7301}, {X: -73.99, Y: 40.73002}})},
	}
	for i := 0; i < 3; i++ {
		shapes = append(shapes, struct {
			name string
			poly *geom.Polygon
		}{"random-holed", randomHoledPolygon(rng)})
	}
	return shapes
}

// randomHoledPolygon returns a jittered star ring with a smaller jittered
// star hole around the same center.
func randomHoledPolygon(rng *rand.Rand) *geom.Polygon {
	c := geom.Point{X: -74 + 0.2*rng.Float64(), Y: 40.6 + 0.2*rng.Float64()}
	star := func(n int, r float64) geom.Ring {
		ring := make(geom.Ring, n)
		for i := range ring {
			a := 2 * math.Pi * float64(i) / float64(n)
			rad := r * (0.8 + 0.4*rng.Float64())
			ring[i] = geom.Point{X: c.X + rad*math.Cos(a), Y: c.Y + rad*math.Sin(a)}
		}
		return ring
	}
	return geom.MustPolygon(star(20+rng.Intn(60), 0.02), star(6+rng.Intn(10), 0.005))
}

// seedRects returns the rects the seed test relates to p: the bound, the
// cells of its covering and their children and grandchildren, cells around
// random points near it, rects whose Y edges lie exactly on band boundaries
// (and a float step off them), and zero-height rects through vertices.
func seedRects(p *geom.Polygon, rng *rand.Rand) []geom.Rect {
	b := p.Bound()
	rects := []geom.Rect{b}
	for _, c := range cover.Covering(p, cover.Options{MaxCells: 16, MaxLevel: cover.MaxSupportedLevel}) {
		rects = append(rects, c.Bound())
		for _, k := range c.Children() {
			rects = append(rects, k.Bound())
			for _, g := range k.Children() {
				rects = append(rects, g.Bound())
			}
		}
	}
	w, h := b.Width(), b.Height()
	for i := 0; i < 100; i++ {
		leaf := cellid.FromPoint(geom.Point{X: b.Lo.X - 0.1*w + 1.2*w*rng.Float64(), Y: b.Lo.Y - 0.1*h + 1.2*h*rng.Float64()})
		rects = append(rects, leaf.Parent(10+rng.Intn(16)).Bound())
	}
	// The band index cuts the bound's height into NumEdges equal bands
	// (fewer only when tall edges would overrun its entry cap).
	nb := p.NumEdges()
	for i := 0; i < 60; i++ {
		y0 := b.Lo.Y + float64(rng.Intn(nb+1))*h/float64(nb)
		y1 := b.Lo.Y + float64(rng.Intn(nb+1))*h/float64(nb)
		if y0 > y1 {
			y0, y1 = y1, y0
		}
		x0 := b.Lo.X + w*rng.Float64()
		x1 := x0 + w*rng.Float64()
		rects = append(rects,
			geom.Rect{Lo: geom.Point{X: x0, Y: y0}, Hi: geom.Point{X: x1, Y: y1}},
			geom.Rect{Lo: geom.Point{X: x0, Y: math.Nextafter(y0, math.Inf(1))}, Hi: geom.Point{X: x1, Y: math.Nextafter(y1, math.Inf(-1))}},
			geom.Rect{Lo: geom.Point{X: x0, Y: math.Nextafter(y0, math.Inf(-1))}, Hi: geom.Point{X: x1, Y: math.Nextafter(y1, math.Inf(1))}},
		)
	}
	for _, r := range p.Rings {
		for _, v := range r {
			rects = append(rects,
				geom.Rect{Lo: geom.Point{X: b.Lo.X, Y: v.Y}, Hi: geom.Point{X: b.Hi.X, Y: v.Y}},
				geom.Rect{Lo: v, Hi: v})
		}
	}
	return rects
}

// segmentKeys returns the coordinates' bit patterns, sorted: a multiset key
// for comparing edge sets regardless of order.
func segmentKeys(segs []geom.Segment) [][4]uint64 {
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

// checkSeed compares seedRelate with a ClippedRelate over every edge. A
// prefix already in dst must be kept as it is.
func checkSeed(t *testing.T, name string, p *geom.Polygon, r geom.Rect) {
	t.Helper()
	want, wantEdges := cover.ClippedRelate(nil, p, r, cover.Edges(p))
	prefix := []geom.Segment{{A: geom.Point{X: 1, Y: 2}, B: geom.Point{X: 3, Y: 4}}}
	got, dst := seedRelate(prefix, p, r)
	if dst[0] != prefix[0] {
		t.Fatalf("%s: seedRelate(%v) overwrote the slice it appends to", name, r)
	}
	if got != want {
		t.Fatalf("%s: seedRelate(%v) = %v, ClippedRelate over every edge = %v", name, r, got, want)
	}
	if g, w := segmentKeys(dst[1:]), segmentKeys(wantEdges); !reflect.DeepEqual(g, w) {
		t.Fatalf("%s: seedRelate(%v) clipped %d edges %v, ClippedRelate %d edges %v", name, r, len(dst)-1, dst[1:], len(wantEdges), wantEdges)
	}
}

func TestRefineSeedMatchesEdgeScan(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, s := range seedShapes() {
		for _, r := range seedRects(s.poly, rng) {
			checkSeed(t, s.name, s.poly, r)
		}
	}
}

// FuzzRefineSeed is TestRefineSeedMatchesEdgeScan on fuzzed rects: shape
// picks a seed shape, and the corners are given in units of its bound, so
// that fuzzed values land on, beside and across it. The seed corpus in
// testdata/fuzz/FuzzRefineSeed holds band-boundary, zero-height, cell-sized
// and non-finite rects.
func FuzzRefineSeed(f *testing.F) {
	shapes := seedShapes()
	f.Fuzz(func(t *testing.T, shape uint8, x0, y0, x1, y1 float64) {
		s := shapes[int(shape)%len(shapes)]
		b := s.poly.Bound()
		at := func(fx, fy float64) geom.Point {
			return geom.Point{X: b.Lo.X + fx*b.Width(), Y: b.Lo.Y + fy*b.Height()}
		}
		checkSeed(t, s.name, s.poly, geom.RectFromPoints(at(x0, y0), at(x1, y1)))
	})
}
