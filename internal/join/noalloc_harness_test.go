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

// TestNoAllocHarness is allocbound's dynamic cross-check: the probe loop
// runs under testing.AllocsPerRun over one chunk of each schedule form —
// packed, wide-key permutation and input order. The //act:alloc-harness
// marker is what `actvet` matches against the annotated function.
func TestNoAllocHarness(t *testing.T) {
	leaf := cellid.FromPoint(geom.Point{X: -73.98, Y: 40.71})
	tbl := refs.NewTable()
	entry := tbl.Encode([]refs.Ref{refs.MakeRef(3, true)})
	tr := act.Build([]cellindex.KeyEntry{
		{Key: leaf.Parent(6), Entry: entry},
	}, act.Delta4)

	// 1024 nearby leaves: distinct keys in a narrow range, so the radix
	// sort packs them.
	near := make([]cellid.CellID, 1024)
	for i := range near {
		near[i] = cellid.CellID(uint64(leaf) + uint64(2*i))
	}
	// 1024 leaves along a world diagonal: keys wider than 32 bits, so the
	// sort falls back to a permutation.
	wide := make([]cellid.CellID, 1024)
	for i := range wide {
		f := float64(i) / float64(len(wide))
		wide[i] = cellid.FromPoint(geom.Point{X: 360*f - 180, Y: 180*f - 90})
	}
	packed, perm := makeProbeOrder(near, 0, 1), makeProbeOrder(wide, 0, 1)
	if packed.packed == nil || perm.perm == nil {
		t.Fatal("harness inputs no longer produce the packed and permutation schedules")
	}
	for _, tc := range []struct {
		name  string
		cells []cellid.CellID
		ord   probeOrder
	}{
		{"packed", near, packed},
		{"perm", wide, perm},
		{"input order", near, probeOrder{}},
	} {
		b := &batchRun{idx: tr, ri: tr, table: tbl, cells: tc.cells, ord: tc.ord, n: len(tc.cells)}
		w := &batchWorker{local: local{counts: make([]int64, 4)}}

		//act:alloc-harness batchRun.probeRuns
		testAllocs(t, "batchRun.probeRuns "+tc.name, func() {
			w.counts[3], w.sth, w.cacheHits, w.matched = 0, 0, 0, 0
			b.probeRuns(w, 0, b.n)
			allocSink += w.counts[3]
		})
	}
}
