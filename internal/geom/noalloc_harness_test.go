package geom

import "testing"

// TestNoAllocHarness is allocbound's dynamic cross-check: the PIP kernel,
// the rect relation, the segment-rect test and the banded edge clip (into
// a caller-owned slice) run under testing.AllocsPerRun. The
// //act:alloc-harness markers are what `actvet` matches against the
// annotated functions.
func TestNoAllocHarness(t *testing.T) {
	p := MustPolygon(
		Ring{{0, 0}, {10, 0}, {10, 10}, {0, 10}},
		Ring{{3, 3}, {6, 3}, {6, 6}, {3, 6}},
	)
	var hits int

	//act:alloc-harness Polygon.ContainsPoint
	testAllocs(t, "Polygon.ContainsPoint", func() {
		if p.ContainsPoint(Point{1, 5}) {
			hits++
		}
	})

	rect := Rect{Point{2, 2}, Point{4, 4}}
	//act:alloc-harness Polygon.RelateRect
	testAllocs(t, "Polygon.RelateRect", func() {
		hits += int(p.RelateRect(rect))
	})

	seg := Segment{Point{1, 1}, Point{5, 3}}
	//act:alloc-harness Segment.IntersectsRect
	testAllocs(t, "Segment.IntersectsRect", func() {
		if seg.IntersectsRect(rect) {
			hits++
		}
	})

	dst := make([]Segment, 0, p.NumEdges())
	//act:alloc-harness Polygon.AppendEdgesInRect
	testAllocs(t, "Polygon.AppendEdgesInRect", func() {
		hits += len(p.AppendEdgesInRect(dst[:0], Rect{Point{-1, 2}, Point{4, 4}}))
	})
	if hits == 0 {
		t.Error("harness calls found nothing")
	}
}

// testAllocs warms f up once and then fails if f allocates per run.
func testAllocs(t *testing.T, name string, f func()) {
	t.Helper()
	f()
	if avg := testing.AllocsPerRun(100, f); avg != 0 {
		t.Errorf("%s: %v allocs/run, want 0", name, avg)
	}
}
