package join

import (
	"testing"

	"actjoin/internal/act"
	"actjoin/internal/cellid"
	"actjoin/internal/cellindex"
	"actjoin/internal/geom"
	"actjoin/internal/refs"
)

// allocSink keeps harness results live so the measured calls cannot be
// eliminated.
var allocSink int64

// testAllocs warms f up once — growing the worker's scratch and result
// buffers to steady state — and then fails if f still allocates per run.
func testAllocs(t *testing.T, name string, f func()) {
	t.Helper()
	f()
	if avg := testing.AllocsPerRun(100, f); avg != 0 {
		t.Errorf("%s: %v allocs/run, want 0", name, avg)
	}
}

// TestNoAllocHarness is allocbound's dynamic cross-check: the bulk probe
// loop runs under testing.AllocsPerRun over a packed sorted schedule, the
// configuration the batch join uses in steady state. The
// //act:alloc-harness marker is what `actvet` matches against the
// annotated function.
func TestNoAllocHarness(t *testing.T) {
	leaf := cellid.FromPoint(geom.Point{X: -73.98, Y: 40.71})
	tbl := refs.NewTable()
	entry := tbl.Encode([]refs.Ref{refs.MakeRef(3, true)})
	tr := act.Build([]cellindex.KeyEntry{
		{Key: leaf.Parent(6), Entry: entry},
	}, act.Delta4)

	// 1024 nearby leaves: distinct keys in a narrow range, so the radix
	// sort produces the packed schedule probeSortedRuns consumes.
	cells := make([]cellid.CellID, 1024)
	for i := range cells {
		cells[i] = cellid.CellID(uint64(leaf) + uint64(2*i))
	}
	ord := makeProbeOrder(cells, 0, 1)
	if ord.packed == nil {
		t.Fatal("probe order did not pack — harness input no longer matches the sorted path")
	}
	b := &batchRun{idx: tr, ri: tr, table: tbl, ord: ord, n: len(cells)}
	w := &batchWorker{local: local{counts: make([]int64, 4)}}

	//act:alloc-harness batchRun.probeSortedRuns
	testAllocs(t, "batchRun.probeSortedRuns", func() {
		w.counts[3], w.sth, w.cacheHits, w.matched = 0, 0, 0, 0
		b.probeSortedRuns(w)
		allocSink += w.counts[3]
	})
}
