package actjoin

import (
	"testing"

	"actjoin/internal/cellid"
	"actjoin/internal/geom"
	"actjoin/internal/supercover"
)

// allocSink keeps harness results live so the measured calls cannot be
// eliminated.
var allocSink int

// testAllocs warms f up once — growing any amortized buffers to their
// steady-state capacity — and then fails if f still allocates per run.
func testAllocs(t *testing.T, name string, f func()) {
	t.Helper()
	f()
	if avg := testing.AllocsPerRun(100, f); avg != 0 {
		t.Errorf("%s: %v allocs/run, want 0", name, avg)
	}
}

// TestNoAllocHarness is allocbound's dynamic cross-check for this package:
// every //act:hotpath function below runs under
// testing.AllocsPerRun against pre-built inputs. The //act:alloc-harness
// markers are what `actvet` matches against the annotated functions.
func TestNoAllocHarness(t *testing.T) {
	leaf := cellid.FromPoint(geom.Point{X: -73.98, Y: 40.71})
	cells := make([]supercover.Cell, 4096)
	for i := range cells {
		cells[i] = supercover.Cell{ID: cellid.CellID(uint64(leaf) + uint64(2*i))}
	}
	// A fragmented rope: four runs splicing views of one sorted stream,
	// the shape an incrementally patched snapshot produces.
	frag := &cellRope{}
	for i := 0; i < len(cells); i += 1024 {
		frag.runs = append(frag.runs, cells[i:i+1024])
		frag.total += 1024
	}
	lo, hi := cells[100].ID, cells[3000].ID

	//act:alloc-harness cellRope.appendRun
	dst := &cellRope{}
	testAllocs(t, "cellRope.appendRun", func() {
		dst.runs, dst.total = dst.runs[:0], 0
		for _, run := range frag.runs {
			dst.appendRun(run) // adjacent views of one array: the merge path
		}
	})

	//act:alloc-harness cellRope.rangeRuns
	testAllocs(t, "cellRope.rangeRuns", func() {
		n := 0
		frag.rangeRuns(lo, hi, func(seg []supercover.Cell) { n += len(seg) })
		allocSink += n
	})

	//act:alloc-harness cellRope.countRange
	testAllocs(t, "cellRope.countRange", func() {
		allocSink += frag.countRange(lo, hi)
	})

	//act:alloc-harness ropeCursor.copyBefore
	out := &cellRope{}
	testAllocs(t, "ropeCursor.copyBefore", func() {
		out.runs, out.total = out.runs[:0], 0
		cur := ropeCursor{rope: frag}
		if last := cur.copyBefore(cells[2000].ID, out); last != nil {
			allocSink += int(last.ID)
		}
	})

	//act:alloc-harness ropeCursor.skipThrough
	testAllocs(t, "ropeCursor.skipThrough", func() {
		cur := ropeCursor{rope: frag}
		allocSink += cur.skipThrough(cells[2000].ID, func(supercover.Cell) {})
	})

	//act:alloc-harness ropeCursor.copyRest
	testAllocs(t, "ropeCursor.copyRest", func() {
		out.runs, out.total = out.runs[:0], 0
		cur := ropeCursor{rope: frag, ri: 1, off: 10}
		cur.copyRest(out)
	})

	// A one-shard index hands out its shard's published snapshot as is:
	// pinning a view costs one atomic load and no allocation.
	ix, err := NewIndex(testPolygons())
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	testAllocs(t, "Index.Current (one shard)", func() {
		allocSink += len(ix.Current().parts)
	})
}
