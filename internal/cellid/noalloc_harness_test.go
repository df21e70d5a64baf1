package cellid

import (
	"testing"

	"actjoin/internal/geom"
)

// allocSink and rectSink keep harness results live so the measured calls
// cannot be eliminated.
var (
	allocSink CellID
	rectSink  geom.Rect
)

// testAllocs warms f up once and then fails if f allocates per run.
func testAllocs(t *testing.T, name string, f func()) {
	t.Helper()
	f()
	if avg := testing.AllocsPerRun(100, f); avg != 0 {
		t.Errorf("%s: %v allocs/run, want 0", name, avg)
	}
}

// TestNoAllocHarness is allocbound's dynamic cross-check: the per-point
// conversion functions run under testing.AllocsPerRun. The
// //act:alloc-harness markers are what `actvet` matches against the
// annotated functions.
func TestNoAllocHarness(t *testing.T) {
	p := geom.Point{X: -73.98, Y: 40.71}

	//act:alloc-harness FromPoint
	testAllocs(t, "FromPoint", func() {
		allocSink += FromPoint(p)
	})

	src := []geom.Point{p, {X: 100, Y: -40}, {X: 0, Y: 0}}
	dst := make([]CellID, len(src))
	//act:alloc-harness FromPoints
	testAllocs(t, "FromPoints", func() {
		FromPoints(dst, src)
		allocSink += dst[0]
	})

	parent := FromPoint(p).Parent(14)
	//act:alloc-harness CellID.ChildBounds
	testAllocs(t, "ChildBounds", func() {
		rectSink = parent.ChildBounds()[3]
	})
}
