package cover

import (
	"math/rand"
	"testing"

	"actjoin/internal/cellid"
	"actjoin/internal/geom"
)

// nycSquare returns a roughly city-block-sized polygon near NYC.
func nycSquare(size float64) *geom.Polygon {
	lo := geom.Point{X: -73.99, Y: 40.73}
	return geom.MustPolygon(geom.Ring{
		lo,
		{X: lo.X + size, Y: lo.Y},
		{X: lo.X + size, Y: lo.Y + size},
		{X: lo.X, Y: lo.Y + size},
	})
}

// lShape returns a concave polygon.
func lShape() *geom.Polygon {
	return geom.MustPolygon(geom.Ring{
		{X: -74.00, Y: 40.70}, {X: -73.94, Y: 40.70}, {X: -73.94, Y: 40.72},
		{X: -73.97, Y: 40.72}, {X: -73.97, Y: 40.76}, {X: -74.00, Y: 40.76},
	})
}

func checkSortedDisjoint(t *testing.T, cells []cellid.CellID) {
	t.Helper()
	for i := 1; i < len(cells); i++ {
		if cells[i-1] >= cells[i] {
			t.Fatalf("cells not strictly sorted at %d", i)
		}
	}
	for i := 0; i < len(cells); i++ {
		for j := i + 1; j < len(cells); j++ {
			if cells[i].Intersects(cells[j]) {
				t.Fatalf("cells %v and %v overlap", cells[i], cells[j])
			}
		}
	}
}

func TestCoveringContainsPolygonPoints(t *testing.T) {
	poly := lShape()
	cells := Covering(poly, DefaultCoveringOptions())
	if len(cells) == 0 {
		t.Fatal("empty covering")
	}
	if len(cells) > 128+3 {
		t.Fatalf("covering exceeds budget: %d cells", len(cells))
	}
	checkSortedDisjoint(t, cells)

	// Every sampled point inside the polygon must be covered by some cell.
	rng := rand.New(rand.NewSource(1))
	b := poly.Bound()
	covered := func(p geom.Point) bool {
		leaf := cellid.FromPoint(p)
		for _, c := range cells {
			if c.Contains(leaf) {
				return true
			}
		}
		return false
	}
	hits := 0
	for i := 0; i < 3000; i++ {
		p := geom.Point{
			X: b.Lo.X + rng.Float64()*b.Width(),
			Y: b.Lo.Y + rng.Float64()*b.Height(),
		}
		if poly.ContainsPoint(p) {
			hits++
			if !covered(p) {
				t.Fatalf("point %v inside polygon but not covered", p)
			}
		}
	}
	if hits < 100 {
		t.Fatal("sampling failed to hit the polygon")
	}
}

func TestInteriorCoveringInsidePolygon(t *testing.T) {
	poly := lShape()
	cells := InteriorCovering(poly, DefaultInteriorOptions())
	if len(cells) == 0 {
		t.Fatal("empty interior covering")
	}
	checkSortedDisjoint(t, cells)

	// Every cell must be fully inside: sample corners and center.
	for _, c := range cells {
		r := c.Bound()
		for _, p := range []geom.Point{r.Lo, r.Hi, r.Center(), {X: r.Lo.X, Y: r.Hi.Y}, {X: r.Hi.X, Y: r.Lo.Y}} {
			if !poly.ContainsPoint(p) && geom.DistanceToPolygonMeters(p, poly) > 0.01 {
				t.Fatalf("interior cell %v has point %v outside polygon", c, p)
			}
		}
	}
}

func TestInteriorIsSubsetOfCovering(t *testing.T) {
	poly := nycSquare(0.02)
	covering := Covering(poly, DefaultCoveringOptions())
	interior := InteriorCovering(poly, DefaultInteriorOptions())

	// Each interior cell must be contained in the union of covering cells:
	// check via its center leaf.
	for _, ic := range interior {
		leaf := cellid.FromPoint(ic.Bound().Center())
		found := false
		for _, cc := range covering {
			if cc.Contains(leaf) {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("interior cell %v not covered by covering", ic)
		}
	}
}

func TestCoveringBudget(t *testing.T) {
	poly := lShape()
	for _, budget := range []int{8, 16, 64, 256} {
		cells := Covering(poly, Options{MaxCells: budget, MaxLevel: 20})
		if len(cells) > budget+3 {
			t.Errorf("budget %d: got %d cells", budget, len(cells))
		}
		if len(cells) == 0 {
			t.Errorf("budget %d: empty covering", budget)
		}
	}
	// Bigger budgets give finer (more) cells.
	small := Covering(poly, Options{MaxCells: 8, MaxLevel: 24})
	large := Covering(poly, Options{MaxCells: 128, MaxLevel: 24})
	if len(large) <= len(small) {
		t.Errorf("larger budget should yield more cells: %d vs %d", len(large), len(small))
	}
}

func TestMaxLevelRespected(t *testing.T) {
	poly := nycSquare(0.001) // tiny polygon forces deep descent
	for _, maxLevel := range []int{10, 14, 18} {
		cells := Covering(poly, Options{MaxCells: 256, MaxLevel: maxLevel})
		for _, c := range cells {
			if c.Level() > maxLevel {
				t.Errorf("maxLevel %d: cell at level %d", maxLevel, c.Level())
			}
		}
	}
}

func TestMinLevelForcesSubdivision(t *testing.T) {
	poly := nycSquare(0.05)
	cells := Covering(poly, Options{MaxCells: 100000, MaxLevel: 20, MinLevel: 12})
	for _, c := range cells {
		if c.Level() < 12 {
			t.Errorf("MinLevel 12 violated: level %d", c.Level())
		}
	}
}

func TestInteriorCoveringSmallerArea(t *testing.T) {
	poly := lShape()
	covering := Covering(poly, DefaultCoveringOptions())
	interior := InteriorCovering(poly, DefaultInteriorOptions())
	areaOf := func(cells []cellid.CellID) float64 {
		var a float64
		for _, c := range cells {
			a += c.Bound().Area()
		}
		return a
	}
	ca, ia, pa := areaOf(covering), areaOf(interior), poly.Area()
	if ca < pa {
		t.Errorf("covering area %v must be >= polygon area %v", ca, pa)
	}
	if ia > pa {
		t.Errorf("interior area %v must be <= polygon area %v", ia, pa)
	}
}

func TestCoveringOfPolygonWithHole(t *testing.T) {
	outer := geom.Ring{{X: -74, Y: 40.7}, {X: -73.9, Y: 40.7}, {X: -73.9, Y: 40.8}, {X: -74, Y: 40.8}}
	hole := geom.Ring{{X: -73.97, Y: 40.73}, {X: -73.93, Y: 40.73}, {X: -73.93, Y: 40.77}, {X: -73.97, Y: 40.77}}
	poly := geom.MustPolygon(outer, hole)
	interior := InteriorCovering(poly, Options{MaxCells: 512, MaxLevel: 16})
	// No interior cell may land inside the hole.
	for _, c := range interior {
		ctr := c.Bound().Center()
		if ctr.X > -73.97 && ctr.X < -73.93 && ctr.Y > 40.73 && ctr.Y < 40.77 {
			t.Fatalf("interior cell %v center %v is inside the hole", c, ctr)
		}
	}
}

func TestPolygonSpanningFaceBoundary(t *testing.T) {
	// A polygon straddling the lon=-60 face boundary (between faces 0/1
	// and 3/4) must be covered on both sides.
	poly := geom.MustPolygon(geom.Ring{
		{X: -60.05, Y: 10}, {X: -59.95, Y: 10}, {X: -59.95, Y: 10.1}, {X: -60.05, Y: 10.1},
	})
	cells := Covering(poly, DefaultCoveringOptions())
	faces := map[int]bool{}
	for _, c := range cells {
		faces[c.Face()] = true
	}
	if len(faces) < 2 {
		t.Errorf("expected cells on both faces, got faces %v", faces)
	}
}

func TestClippedRelateMatchesRelateRect(t *testing.T) {
	poly := lShape()
	edges := Edges(poly)
	if len(edges) != poly.NumEdges() {
		t.Fatalf("Edges() returned %d, want %d", len(edges), poly.NumEdges())
	}
	rng := rand.New(rand.NewSource(2))
	b := poly.Bound()
	for i := 0; i < 1000; i++ {
		cx := b.Lo.X + rng.Float64()*b.Width()*1.2 - b.Width()*0.1
		cy := b.Lo.Y + rng.Float64()*b.Height()*1.2 - b.Height()*0.1
		w := rng.Float64() * 0.02
		r := geom.Rect{Lo: geom.Point{X: cx, Y: cy}, Hi: geom.Point{X: cx + w, Y: cy + w}}
		want := poly.RelateRect(r)
		got, clipped := ClippedRelate(nil, poly, r, edges)
		if got != want {
			t.Fatalf("ClippedRelate = %v, RelateRect = %v for %v", got, want, r)
		}
		if got == geom.RectPartial && len(clipped) == 0 {
			t.Fatal("partial relation must return clipped edges")
		}
		if got != geom.RectPartial && clipped != nil {
			t.Fatal("non-partial relation must not return edges")
		}
	}
}

func TestClippedRelateDescent(t *testing.T) {
	// Descending with clipped edge sets must agree with full classification.
	poly := lShape()
	edges := Edges(poly)
	var walk func(c cellid.CellID, e []geom.Segment, depth int)
	walk = func(c cellid.CellID, e []geom.Segment, depth int) {
		rel, clipped := ClippedRelate(nil, poly, c.Bound(), e)
		if want := poly.RelateRect(c.Bound()); rel != want {
			t.Fatalf("descent relation mismatch at %v: %v vs %v", c, rel, want)
		}
		if rel != geom.RectPartial || depth == 0 {
			return
		}
		for _, child := range c.Children() {
			walk(child, clipped, depth-1)
		}
	}
	seed := cellid.FromPoint(geom.Point{X: -73.97, Y: 40.73}).Parent(8)
	walk(seed, edges, 6)
}

func TestDegeneratePolygonCovering(t *testing.T) {
	// A very thin sliver should still produce a non-empty covering and an
	// empty (or tiny) interior covering.
	sliver := geom.MustPolygon(geom.Ring{
		{X: -73.99, Y: 40.75}, {X: -73.95, Y: 40.7501}, {X: -73.95, Y: 40.75015}, {X: -73.99, Y: 40.75005},
	})
	cov := Covering(sliver, DefaultCoveringOptions())
	if len(cov) == 0 {
		t.Error("sliver covering must not be empty")
	}
	inter := InteriorCovering(sliver, Options{MaxCells: 64, MaxLevel: 16})
	for _, c := range inter {
		if !sliver.ContainsPoint(c.Bound().Center()) {
			t.Error("sliver interior cell not inside polygon")
		}
	}
}

func TestZeroOptionsDefaults(t *testing.T) {
	poly := nycSquare(0.02)
	cells := Covering(poly, Options{})
	if len(cells) == 0 {
		t.Fatal("zero options must still produce a covering")
	}
	for _, c := range cells {
		if c.Level() > MaxSupportedLevel {
			t.Fatalf("cell exceeds MaxSupportedLevel: %d", c.Level())
		}
	}
}

func BenchmarkCoveringNeighborhoodSized(b *testing.B) {
	poly := lShape()
	opt := DefaultCoveringOptions()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Covering(poly, opt)
	}
}

func BenchmarkInteriorCovering(b *testing.B) {
	poly := lShape()
	opt := DefaultInteriorOptions()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = InteriorCovering(poly, opt)
	}
}
