package actjoin

import (
	"fmt"
	"testing"

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
	// A fragmented rope: 4096 single-cell runs over one sorted stream, a
	// three-level tree, the shape an incrementally patched snapshot takes.
	frag, cells := leafRope(4096)
	lo, hi := cells[100].ID, cells[6000].ID

	//act:alloc-harness cellRope.rangeRuns
	testAllocs(t, "cellRope.rangeRuns", func() {
		n := 0
		frag.rangeRuns(lo, hi, func(seg []supercover.Cell) { n += len(seg) })
		allocSink += n
	})

	//act:alloc-harness cellRope.rank
	testAllocs(t, "cellRope.rank", func() {
		allocSink += frag.rank(hi)
	})

	//act:alloc-harness cellRope.countRange
	testAllocs(t, "cellRope.countRange", func() {
		allocSink += frag.countRange(lo, hi)
	})

	//act:alloc-harness cellRope.before
	testAllocs(t, "cellRope.before", func() {
		if c := frag.before(cells[4001].ID); c != nil {
			allocSink += int(c.ID)
		}
	})

	// The composed view is published whole, so pinning it costs one atomic
	// load and no allocation at every shard count (4 requested shards of
	// the test polygons yield 3).
	for _, want := range []struct{ requested, min int }{{1, 1}, {2, 2}, {4, 3}} {
		ix, err := NewShardedIndex(testPolygons(), want.requested)
		if err != nil {
			t.Fatal(err)
		}
		defer ix.Close()
		if ix.NumShards() < want.min {
			t.Fatalf("%d requested shards gave %d, want at least %d", want.requested, ix.NumShards(), want.min)
		}
		testAllocs(t, fmt.Sprintf("Index.Current (%d shards)", ix.NumShards()), func() {
			allocSink += len(ix.Current().parts)
		})
	}
}
