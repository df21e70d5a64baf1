package act

import (
	"math/rand"
	"testing"

	"actjoin/internal/cellid"
	"actjoin/internal/cellindex"
	"actjoin/internal/geom"
	"actjoin/internal/refs"
	"actjoin/internal/supercover"
)

// bruteFind is the reference implementation: scan all cells for the unique
// one containing the leaf.
func bruteFind(kvs []cellindex.KeyEntry, leaf cellid.CellID) refs.Entry {
	for _, kv := range kvs {
		if kv.Key.Contains(leaf) {
			return kv.Entry
		}
	}
	return refs.FalseHit
}

// buildTestCovering builds a super covering over a small polygon set and
// returns the encoded pairs.
func buildTestCovering(t testing.TB) ([]cellindex.KeyEntry, *refs.Table, []*geom.Polygon) {
	t.Helper()
	polys := []*geom.Polygon{
		geom.MustPolygon(geom.Ring{
			{X: -74.00, Y: 40.70}, {X: -73.97, Y: 40.70}, {X: -73.97, Y: 40.73}, {X: -74.00, Y: 40.73},
		}),
		geom.MustPolygon(geom.Ring{
			{X: -73.97, Y: 40.70}, {X: -73.94, Y: 40.70}, {X: -73.94, Y: 40.73}, {X: -73.97, Y: 40.73},
		}),
		geom.MustPolygon(geom.Ring{
			{X: -73.985, Y: 40.715}, {X: -73.955, Y: 40.715}, {X: -73.955, Y: 40.745}, {X: -73.985, Y: 40.745},
		}),
	}
	sc := supercover.Build(polys, supercover.DefaultOptions())
	kvs, table := cellindex.Encode(sc.Cells())
	return kvs, table, polys
}

func TestBuildEmptyTree(t *testing.T) {
	for _, delta := range []int{Delta1, Delta2, Delta4} {
		tr := Build(nil, delta)
		if got := tr.Find(cellid.FromPoint(geom.Point{X: 1, Y: 2})); !got.IsFalseHit() {
			t.Errorf("delta %d: empty tree must return false hits", delta)
		}
		if tr.NumNodes() != 0 || tr.SizeBytes() != 0 {
			t.Errorf("delta %d: empty tree must have no nodes", delta)
		}
	}
}

func TestBuildPanicsOnBadDelta(t *testing.T) {
	for _, delta := range []int{0, 3, 5, 8, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("delta %d must panic", delta)
				}
			}()
			Build(nil, delta)
		}()
	}
}

func TestSingleCellAllDeltas(t *testing.T) {
	base := cellid.FromPoint(geom.Point{X: -73.98, Y: 40.71})
	for level := 0; level <= cellid.MaxLevel; level++ {
		cell := base.Parent(level)
		entry := refs.NewTable().Encode([]refs.Ref{refs.MakeRef(42, true)})
		kvs := []cellindex.KeyEntry{{Key: cell, Entry: entry}}
		for _, delta := range []int{1, 2, 4} {
			tr := Build(kvs, delta)
			// Any leaf inside the cell must find the entry.
			if got := tr.Find(base); got != entry {
				t.Fatalf("level %d delta %d: Find = %v, want %v", level, delta, got, entry)
			}
			// The cell's own range endpoints must also hit.
			if got := tr.Find(cell.RangeMin()); got != entry {
				t.Fatalf("level %d delta %d: RangeMin miss", level, delta)
			}
			if got := tr.Find(cell.RangeMax()); got != entry {
				t.Fatalf("level %d delta %d: RangeMax miss", level, delta)
			}
			// A leaf on another face must miss.
			other := cellid.FromPoint(geom.Point{X: 100, Y: -40})
			if got := tr.Find(other); !got.IsFalseHit() {
				t.Fatalf("level %d delta %d: foreign leaf hit", level, delta)
			}
		}
	}
}

func TestSiblingMissWithPrefix(t *testing.T) {
	// One deep cell creates a long common prefix; leaves that differ inside
	// the prefix must miss via the prefix check.
	leaf := cellid.FromPoint(geom.Point{X: -73.98, Y: 40.71})
	cell := leaf.Parent(20)
	entry := refs.NewTable().Encode([]refs.Ref{refs.MakeRef(1, false)})
	for _, delta := range []int{1, 2, 4} {
		tr := Build([]cellindex.KeyEntry{{Key: cell, Entry: entry}}, delta)
		// Sibling cell at level 20: guaranteed outside.
		sibling := leaf.Parent(19).Child((cell.ChildPosition(20) + 1) % 4)
		if got := tr.Find(sibling.RangeMin()); !got.IsFalseHit() {
			t.Errorf("delta %d: sibling leaf must miss", delta)
		}
		// Same-face leaf far away.
		far := cellid.FromPoint(geom.Point{X: -73.5, Y: 40.71})
		if far.Face() == cell.Face() {
			if got := tr.Find(far); !got.IsFalseHit() {
				t.Errorf("delta %d: far leaf must miss", delta)
			}
		}
	}
}

func TestKeyExtensionReplicatesPayload(t *testing.T) {
	// Bands anchor at the deepest cell (level 8 here, a multiple of 4), so
	// a level-6 cell with delta 4 must be extended to 16 level-8 replicas.
	leaf := cellid.FromPoint(geom.Point{X: -73.98, Y: 40.71})
	anchor := leaf.Parent(8)
	// A disjoint level-6 cell: a sibling subtree of the anchor's level-5
	// ancestor.
	other := leaf.Parent(4).Child((leaf.ChildPosition(5) + 1) % 4).Child(0)
	if other.Level() != 6 || anchor.Intersects(other) {
		t.Fatal("test setup broken")
	}
	tbl := refs.NewTable()
	ea := tbl.Encode([]refs.Ref{refs.MakeRef(9, true)})
	eb := tbl.Encode([]refs.Ref{refs.MakeRef(10, true)})
	kvs := []cellindex.KeyEntry{{Key: anchor, Entry: ea}, {Key: other, Entry: eb}}
	if kvs[0].Key > kvs[1].Key {
		kvs[0], kvs[1] = kvs[1], kvs[0]
	}
	tr := Build(kvs, Delta4)
	// All 16 level-8 descendants of the level-6 cell carry the payload.
	for _, c1 := range other.Children() {
		for _, c2 := range c1.Children() {
			if got := tr.Find(c2.RangeMin()); got != eb {
				t.Fatalf("descendant %v missed the extended payload", c2)
			}
		}
	}
	if got := tr.Find(anchor.RangeMax()); got != ea {
		t.Fatal("anchor cell lost")
	}
	if tr.NumValueSlots() != 1+16 {
		t.Errorf("NumValueSlots = %d, want 17 (anchor + 16 replicas)", tr.NumValueSlots())
	}
}

func TestBandAnchoringAvoidsReplication(t *testing.T) {
	// The paper's 4m bound is level 22 (not a multiple of 4). With the
	// bands anchored at the deepest level, level-22 cells need no
	// key-extension replicas in ACT4.
	leaf := cellid.FromPoint(geom.Point{X: -73.98, Y: 40.71})
	parent := leaf.Parent(21)
	kids := parent.Children() // four level-22 cells
	tbl := refs.NewTable()
	var kvs []cellindex.KeyEntry
	for i, k := range kids {
		kvs = append(kvs, cellindex.KeyEntry{Key: k, Entry: tbl.Encode([]refs.Ref{refs.MakeRef(uint32(i), true)})})
	}
	tr := Build(kvs, Delta4)
	if tr.NumValueSlots() != 4 {
		t.Errorf("NumValueSlots = %d, want 4 (no replication at the anchor level)", tr.NumValueSlots())
	}
	for i, k := range kids {
		want := tbl.Encode([]refs.Ref{refs.MakeRef(uint32(i), true)})
		if got := tr.Find(k.RangeMin()); got != want {
			t.Fatalf("cell %d mismatch", i)
		}
	}
}

func TestFindMatchesBruteForce(t *testing.T) {
	kvs, _, _ := buildTestCovering(t)
	if len(kvs) == 0 {
		t.Fatal("empty covering")
	}
	rng := rand.New(rand.NewSource(1))
	trees := map[int]*Tree{}
	for _, delta := range []int{1, 2, 4} {
		trees[delta] = Build(kvs, delta)
	}
	for iter := 0; iter < 5000; iter++ {
		p := geom.Point{X: -74.02 + rng.Float64()*0.1, Y: 40.68 + rng.Float64()*0.09}
		leaf := cellid.FromPoint(p)
		want := bruteFind(kvs, leaf)
		for delta, tr := range trees {
			if got := tr.Find(leaf); got != want {
				t.Fatalf("delta %d: Find(%v) = %#x, want %#x", delta, leaf, got, want)
			}
		}
	}
}

func TestFindDepthMatchesFind(t *testing.T) {
	kvs, _, _ := buildTestCovering(t)
	tr := Build(kvs, Delta4)
	rng := rand.New(rand.NewSource(2))
	maxDepth := (maxIndexLevel + Delta4 - 1) / Delta4
	for iter := 0; iter < 2000; iter++ {
		p := geom.Point{X: -74.02 + rng.Float64()*0.1, Y: 40.68 + rng.Float64()*0.09}
		leaf := cellid.FromPoint(p)
		e1 := tr.Find(leaf)
		e2, depth := tr.FindDepth(leaf)
		if e1 != e2 {
			t.Fatalf("FindDepth entry mismatch")
		}
		if e1 != refs.FalseHit || depth > 0 {
			if depth < 0 || depth > maxDepth {
				t.Fatalf("depth %d out of range", depth)
			}
		}
	}
}

func TestDeltaSizeTradeoffs(t *testing.T) {
	kvs, _, _ := buildTestCovering(t)
	t1 := Build(kvs, Delta1)
	t2 := Build(kvs, Delta2)
	t4 := Build(kvs, Delta4)
	// Higher fanout means fewer (bigger) nodes.
	if !(t1.NumNodes() > t2.NumNodes() && t2.NumNodes() > t4.NumNodes()) {
		t.Errorf("node counts should decrease with fanout: %d %d %d",
			t1.NumNodes(), t2.NumNodes(), t4.NumNodes())
	}
	for _, tr := range []*Tree{t1, t2, t4} {
		if tr.SizeBytes() != 8*tr.NumNodes()*tr.Fanout() {
			t.Error("SizeBytes must equal arena size")
		}
		if tr.NumCells() != len(kvs) {
			t.Errorf("NumCells = %d, want %d", tr.NumCells(), len(kvs))
		}
	}
}

func TestDeepCellsSupported(t *testing.T) {
	// Band anchoring supports cells at any level up to the leaf level.
	leaf := cellid.FromPoint(geom.Point{X: 1, Y: 1})
	entry := refs.Entry(uint64(refs.MakeRef(1, false))<<2 | refs.TagOneRef)
	for _, level := range []int{29, 30} {
		tr := Build([]cellindex.KeyEntry{{Key: leaf.Parent(level), Entry: entry}}, Delta4)
		if got := tr.Find(leaf.Parent(level).RangeMin()); got != entry {
			t.Errorf("level-%d cell not found", level)
		}
	}
}

func TestBuildPanicsOnOverlappingCells(t *testing.T) {
	leaf := cellid.FromPoint(geom.Point{X: 1, Y: 1})
	entry := refs.Entry(uint64(refs.MakeRef(1, false))<<2 | refs.TagOneRef)
	kvs := []cellindex.KeyEntry{
		{Key: leaf.Parent(8), Entry: entry},
		{Key: leaf.Parent(12), Entry: entry}, // contained in the first
	}
	defer func() {
		if recover() == nil {
			t.Error("overlapping cells must panic")
		}
	}()
	Build(kvs, Delta4)
}

func TestFalseHitEntriesSkipped(t *testing.T) {
	// Cells encoded to FalseHit (empty ref lists) must simply not be
	// indexed rather than corrupting the tree.
	leaf := cellid.FromPoint(geom.Point{X: 1, Y: 1})
	kvs := []cellindex.KeyEntry{{Key: leaf.Parent(8), Entry: refs.FalseHit}}
	tr := Build(kvs, Delta4)
	if got := tr.Find(leaf); !got.IsFalseHit() {
		t.Error("false-hit cell must not be found")
	}
}

func TestMultiFaceTree(t *testing.T) {
	// Cells on two different faces must live in separate face trees.
	l1 := cellid.FromPoint(geom.Point{X: -73.98, Y: 40.71}) // face with NYC
	l2 := cellid.FromPoint(geom.Point{X: 100, Y: -40})      // other hemisphere
	if l1.Face() == l2.Face() {
		t.Fatal("test setup: expected different faces")
	}
	tbl := refs.NewTable()
	e1 := tbl.Encode([]refs.Ref{refs.MakeRef(1, true)})
	e2 := tbl.Encode([]refs.Ref{refs.MakeRef(2, true)})
	kvs := []cellindex.KeyEntry{
		{Key: l1.Parent(10), Entry: e1},
		{Key: l2.Parent(10), Entry: e2},
	}
	if kvs[0].Key > kvs[1].Key {
		kvs[0], kvs[1] = kvs[1], kvs[0]
	}
	tr := Build(kvs, Delta4)
	if got := tr.Find(l1); got != e1 {
		t.Errorf("face 1 lookup = %#x, want %#x", got, e1)
	}
	if got := tr.Find(l2); got != e2 {
		t.Errorf("face 2 lookup = %#x, want %#x", got, e2)
	}
}

func TestStats(t *testing.T) {
	kvs, _, _ := buildTestCovering(t)
	tr := Build(kvs, Delta4)
	st := tr.ComputeStats()
	if st.NumNodes != tr.NumNodes() {
		t.Errorf("stats NumNodes %d != %d", st.NumNodes, tr.NumNodes())
	}
	if st.NumValueSlots != tr.NumValueSlots() {
		t.Errorf("stats NumValueSlots %d != %d", st.NumValueSlots, tr.NumValueSlots())
	}
	total := st.NumValueSlots + st.NumChildSlots + st.NumEmptySlots
	if total != tr.NumNodes()*tr.Fanout() {
		t.Errorf("slot counts %d don't sum to %d", total, tr.NumNodes()*tr.Fanout())
	}
	var nodes int
	for _, n := range st.NodesPerDepth {
		nodes += n
	}
	if nodes != st.NumNodes {
		t.Error("NodesPerDepth must sum to NumNodes")
	}
	if st.AvgValueDepth <= 0 || st.AvgValueDepth > float64(st.MaxDepth+1) {
		t.Errorf("AvgValueDepth = %v out of range", st.AvgValueDepth)
	}
	for d, occ := range st.OccupancyPerDepth {
		if occ < 0 || occ > 1 {
			t.Errorf("occupancy at depth %d = %v", d, occ)
		}
	}
}

// Larger fanout must never require more node accesses than smaller fanout.
func TestDepthMonotoneInFanout(t *testing.T) {
	kvs, _, _ := buildTestCovering(t)
	t1 := Build(kvs, Delta1)
	t4 := Build(kvs, Delta4)
	rng := rand.New(rand.NewSource(3))
	for iter := 0; iter < 1000; iter++ {
		p := geom.Point{X: -74.02 + rng.Float64()*0.1, Y: 40.68 + rng.Float64()*0.09}
		leaf := cellid.FromPoint(p)
		_, d1 := t1.FindDepth(leaf)
		_, d4 := t4.FindDepth(leaf)
		if d4 > d1 {
			t.Fatalf("ACT4 depth %d > ACT1 depth %d for %v", d4, d1, leaf)
		}
	}
}

// Refined coverings must still probe correctly across all deltas (exercises
// key extension at many levels at once).
func TestFindAfterRefinement(t *testing.T) {
	polys := []*geom.Polygon{
		geom.MustPolygon(geom.Ring{
			{X: -74.00, Y: 40.70}, {X: -73.96, Y: 40.705}, {X: -73.95, Y: 40.74}, {X: -73.99, Y: 40.735},
		}),
	}
	sc := supercover.Build(polys, supercover.DefaultOptions())
	sc.RefineToPrecision(polys, 17)
	kvs, _ := cellindex.Encode(sc.Cells())
	rng := rand.New(rand.NewSource(4))
	for _, delta := range []int{1, 2, 4} {
		tr := Build(kvs, delta)
		for iter := 0; iter < 1500; iter++ {
			p := geom.Point{X: -74.01 + rng.Float64()*0.07, Y: 40.69 + rng.Float64()*0.06}
			leaf := cellid.FromPoint(p)
			if got, want := tr.Find(leaf), bruteFind(kvs, leaf); got != want {
				t.Fatalf("delta %d: mismatch after refinement", delta)
			}
		}
	}
}

func BenchmarkFindACT4(b *testing.B) {
	kvs, _, _ := buildTestCovering(b)
	tr := Build(kvs, Delta4)
	rng := rand.New(rand.NewSource(5))
	leaves := make([]cellid.CellID, 4096)
	for i := range leaves {
		p := geom.Point{X: -74.02 + rng.Float64()*0.1, Y: 40.68 + rng.Float64()*0.09}
		leaves[i] = cellid.FromPoint(p)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = tr.Find(leaves[i&4095])
	}
}

func BenchmarkFindACT1(b *testing.B) {
	kvs, _, _ := buildTestCovering(b)
	tr := Build(kvs, Delta1)
	rng := rand.New(rand.NewSource(6))
	leaves := make([]cellid.CellID, 4096)
	for i := range leaves {
		p := geom.Point{X: -74.02 + rng.Float64()*0.1, Y: 40.68 + rng.Float64()*0.09}
		leaves[i] = cellid.FromPoint(p)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = tr.Find(leaves[i&4095])
	}
}

func TestFindRangeMatchesFind(t *testing.T) {
	kvs, _, _ := buildTestCovering(t)
	rng := rand.New(rand.NewSource(3))
	for _, delta := range []int{1, 2, 4} {
		tr := Build(kvs, delta)
		for iter := 0; iter < 5000; iter++ {
			p := geom.Point{X: -74.05 + rng.Float64()*0.16, Y: 40.66 + rng.Float64()*0.12}
			leaf := cellid.FromPoint(p)
			want := tr.Find(leaf)
			got, lo, hi := tr.FindRange(leaf)
			if got != want {
				t.Fatalf("delta %d: FindRange entry %#x, want %#x", delta, got, want)
			}
			if leaf < lo || leaf > hi {
				t.Fatalf("delta %d: leaf %v outside reported range [%v, %v]", delta, leaf, lo, hi)
			}
			// Every leaf in the reported range must resolve to the same
			// entry: probe the endpoints and a midpoint.
			for _, probe := range []cellid.CellID{lo, hi, lo + (hi-lo)/2 | 1} {
				if e := tr.Find(probe); e != want {
					t.Fatalf("delta %d: range [%v, %v] not uniform: Find(%v) = %#x, want %#x",
						delta, lo, hi, probe, e, want)
				}
			}
		}
	}
}

func TestFindRangeEmptyFace(t *testing.T) {
	// A tree with cells on one face must report whole-face false-hit ranges
	// for the other faces.
	leaf := cellid.FromPoint(geom.Point{X: -73.98, Y: 40.71})
	entry := refs.NewTable().Encode([]refs.Ref{refs.MakeRef(7, true)})
	tr := Build([]cellindex.KeyEntry{{Key: leaf.Parent(10), Entry: entry}}, Delta4)
	other := cellid.FromPoint(geom.Point{X: 100, Y: -40}) // different face
	e, lo, hi := tr.FindRange(other)
	if !e.IsFalseHit() {
		t.Fatalf("probe on empty face returned %#x", e)
	}
	fc := cellid.FaceCell(other.Face())
	if lo != fc.RangeMin() || hi != fc.RangeMax() {
		t.Errorf("empty-face range [%v, %v], want the whole face [%v, %v]",
			lo, hi, fc.RangeMin(), fc.RangeMax())
	}
}

func TestFindRangeRunSkipsWalks(t *testing.T) {
	// The point of FindRange: consecutive leaves inside the returned range
	// resolve without another walk. Verify ranges cover the containing cell
	// exactly for value hits.
	leaf := cellid.FromPoint(geom.Point{X: -73.98, Y: 40.71})
	cell := leaf.Parent(12)
	entry := refs.NewTable().Encode([]refs.Ref{refs.MakeRef(3, true)})
	tr := Build([]cellindex.KeyEntry{{Key: cell, Entry: entry}}, Delta4)
	e, lo, hi := tr.FindRange(leaf)
	if e.IsFalseHit() {
		t.Fatal("expected a value hit")
	}
	if lo < cell.RangeMin() || hi > cell.RangeMax() {
		t.Errorf("range [%v, %v] exceeds the indexed cell [%v, %v]",
			lo, hi, cell.RangeMin(), cell.RangeMax())
	}
	if lo != cell.RangeMin() || hi != cell.RangeMax() {
		t.Errorf("level-12 cell is band-aligned for delta 4; range [%v, %v] should be the full cell [%v, %v]",
			lo, hi, cell.RangeMin(), cell.RangeMax())
	}
}

// findRangeRef is the unwidened FindRange: the range it reports is exactly
// the extent of the slot that terminated the walk, never its parent's. It is
// the oracle FuzzFindRange checks the quad widening against.
func findRangeRef(t *Tree, leaf cellid.CellID) (refs.Entry, cellid.CellID, cellid.CellID) {
	face := int(uint64(leaf) >> 61)
	ft := &t.faces[face]
	if ft.root < 0 {
		fc := cellid.FaceCell(face)
		return refs.FalseHit, fc.RangeMin(), fc.RangeMax()
	}
	path := uint64(leaf) << 3
	if ft.prefixLevels > 0 {
		if path>>(64-uint(2*ft.prefixLevels)) != ft.prefixBits {
			anc := leaf.Parent(ft.prefixLevels)
			return refs.FalseHit, anc.RangeMin(), anc.RangeMax()
		}
	}
	shift := ft.firstShift
	mask := ft.firstMask
	fullMask := uint64(t.fanout - 1)
	cur := int(ft.root)
	level := ft.prefixLevels + ft.rootSpan
	for {
		e := t.entries[cur*t.fanout+int((path>>shift)&mask)]
		if e&3 != 0 || e == 0 {
			anc := leaf.Parent(level)
			return refs.Entry(e), anc.RangeMin(), anc.RangeMax()
		}
		cur = int(e>>2) - 1
		shift -= t.span
		mask = fullMask
		level += t.delta
	}
}

// checkRange fails unless FindRange(leaf) reports entry want over exactly
// the extent of cell.
func checkRange(t *testing.T, tr *Tree, leaf cellid.CellID, want refs.Entry, cell cellid.CellID, what string) {
	t.Helper()
	e, lo, hi := tr.FindRange(leaf)
	if e != want {
		t.Errorf("%s: entry %#x, want %#x", what, e, want)
	}
	if lo != cell.RangeMin() || hi != cell.RangeMax() {
		t.Errorf("%s: range [%v, %v], want the level-%d cell [%v, %v]",
			what, lo, hi, cell.Level(), cell.RangeMin(), cell.RangeMax())
	}
}

// TestFindRangeCoversExtendedQuad: a slot whose aligned quad holds one entry
// reports the quad's parent cell, so a cell stored as four key-extension
// replicas is one range; a coarser cell is capped at one quad.
func TestFindRangeCoversExtendedQuad(t *testing.T) {
	const L = 12 // the anchor: a band boundary for delta 4
	leaf := cellid.FromPoint(geom.Point{X: -73.98, Y: 40.71})
	base := leaf.Parent(L - 3)
	anchor := base.Child(0).Child(0).Child(0) // level L: one slot
	up1 := base.Child(1).Child(2)             // level L-1: 4 replicas
	up2 := base.Child(2)                      // level L-2: 16 replicas
	tbl := refs.NewTable()
	ea := tbl.Encode([]refs.Ref{refs.MakeRef(1, true)})
	e1 := tbl.Encode([]refs.Ref{refs.MakeRef(2, true)})
	e2 := tbl.Encode([]refs.Ref{refs.MakeRef(3, false)})
	tr := Build([]cellindex.KeyEntry{
		{Key: anchor, Entry: ea}, {Key: up1, Entry: e1}, {Key: up2, Entry: e2},
	}, Delta4)
	if tr.NumValueSlots() != 1+4+16 {
		t.Fatalf("NumValueSlots = %d, want 21", tr.NumValueSlots())
	}

	checkRange(t, tr, anchor.RangeMin(), ea, anchor, "level-L cell beside empty slots")
	for _, c := range up1.Children() {
		checkRange(t, tr, c.RangeMax(), e1, up1, "level-(L-1) cell")
	}
	// The level-(L-2) cell spans four quads; each reports its own quad.
	for _, q := range up2.Children() {
		for _, c := range q.Children() {
			checkRange(t, tr, c.RangeMin()+2, e2, q, "level-(L-2) cell, capped at one quad")
		}
	}
	// A quad of four empty slots is one false-hit gap at level L-1.
	gap := base.Child(3).Child(1)
	checkRange(t, tr, gap.Child(3).RangeMin(), refs.FalseHit, gap, "empty quad")
	// An empty slot beside indexed siblings keeps its own level-L extent.
	lone := anchor.ImmediateParent().Child(1)
	checkRange(t, tr, lone.RangeMin(), refs.FalseHit, lone, "empty slot beside a value")

	t.Run("delta1", func(t *testing.T) {
		// At delta 1 the quad is the whole node: four equal siblings widen
		// to their parent, unequal ones keep their own cell.
		p := leaf.Parent(14)
		kids := p.Children()
		var kvs []cellindex.KeyEntry
		for _, k := range kids {
			kvs = append(kvs, cellindex.KeyEntry{Key: k, Entry: e1})
		}
		tr := Build(kvs, Delta1)
		for _, k := range kids {
			checkRange(t, tr, k.RangeMax(), e1, p, "four equal siblings")
		}
		kvs[2].Entry = e2
		tr = Build(kvs, Delta1)
		checkRange(t, tr, kids[0].RangeMin(), e1, kids[0], "unequal siblings")
		checkRange(t, tr, kids[2].RangeMin(), e2, kids[2], "unequal siblings")
	})

	t.Run("narrow root band", func(t *testing.T) {
		// Level-1 and level-5 cells anchor the bands at 5, 1 for delta 4:
		// the root band (0, 1] is one level wide, so its quad is the four
		// children of the face.
		face := cellid.FaceCell(4)
		deep := face.Child(3).Child(0).Child(0).Child(0).Child(0) // level 5
		mid := face.Child(3).Child(1).Child(2)                    // level 3: 16 replicas
		kvs := []cellindex.KeyEntry{
			{Key: face.Child(0), Entry: e1}, {Key: face.Child(1), Entry: e1}, {Key: face.Child(2), Entry: e1},
			{Key: deep, Entry: ea}, {Key: mid, Entry: e2},
		}
		tr := Build(kvs, Delta4)
		if ft := tr.faces[4]; ft.rootSpan != 1 || ft.prefixLevels != 0 {
			t.Fatalf("layout: rootSpan %d prefix %d, want 1 and 0", ft.rootSpan, ft.prefixLevels)
		}
		// The fourth root slot holds a child pointer: no widening.
		checkRange(t, tr, face.Child(1).RangeMax(), e1, face.Child(1), "root slot beside a pointer")
		// The level-3 cell has 16 level-5 replicas: each quad is one level-4 cell.
		for _, q := range mid.Children() {
			checkRange(t, tr, q.Child(1).RangeMin(), e2, q, "replicas under a narrow root")
		}
		checkRange(t, tr, deep.RangeMin(), ea, deep, "level-5 cell")

		// With all four level-1 cells equal, the range is the whole face.
		kvs = []cellindex.KeyEntry{
			{Key: face.Child(0), Entry: e1}, {Key: face.Child(1), Entry: e1},
			{Key: face.Child(2), Entry: e1}, {Key: face.Child(3), Entry: e1},
		}
		tr = Build(kvs, Delta4)
		if ft := tr.faces[4]; ft.rootSpan != 1 {
			t.Fatalf("layout: rootSpan %d, want 1", ft.rootSpan)
		}
		checkRange(t, tr, face.Child(2).RangeMin(), e1, face, "four equal root slots")
	})
}

// findRangeFixture is one tree FuzzFindRange probes, with the cell set it
// indexes (the fuzzer aims most leaves near those cells).
type findRangeFixture struct {
	name string
	tr   *Tree
	kvs  []cellindex.KeyEntry
}

// findRangeFixtures returns the test covering at delta 1, 2 and 4, and a
// delta-4 tree derived from it by a chain of patches that left orphans.
func findRangeFixtures(t testing.TB) []findRangeFixture {
	kvs, _, _ := buildTestCovering(t)
	var out []findRangeFixture
	for _, delta := range []int{Delta1, Delta2, Delta4} {
		out = append(out, findRangeFixture{"covering", Build(kvs, delta), kvs})
	}
	rng := rand.New(rand.NewSource(41))
	tbl := refs.NewTable()
	cur := Build(kvs, Delta4)
	state := kvs
	for step := 0; step < 8; step++ {
		k := state[rng.Intn(len(state))].Key
		root := k.Parent(k.Level() - rng.Intn(3))
		regions := []PatchRegion{{Root: root, KVs: randomCellsUnder(rng, tbl, root, 30)}}
		nextState := applyRegions(state, regions)
		next, ok := cur.Patch(regions, len(nextState))
		if !ok {
			continue
		}
		cur, state = next, nextState
	}
	if cur.OrphanNodes() == 0 {
		t.Fatal("patch chain left no orphans")
	}
	return append(out, findRangeFixture{"patched", cur, state})
}

// rangeCell returns the cell whose leaf range is [lo, hi].
func rangeCell(lo, hi cellid.CellID) cellid.CellID { return lo + (hi-lo)/2 }

// FuzzFindRange checks FindRange against the unwidened findRangeRef and
// Find: same entry, a range that contains the reference range and stays
// within its parent, and the entry holds at the range's ends, middle and
// every child of the reported cell.
func FuzzFindRange(f *testing.F) {
	fixtures := findRangeFixtures(f)
	f.Fuzz(func(t *testing.T, sel uint8, pick uint16, off uint64) {
		fx := fixtures[int(sel)%len(fixtures)]
		var leaf cellid.CellID
		if pick&0x8000 != 0 {
			// Anywhere on the sphere.
			face := (off >> 61) % cellid.NumFaces
			leaf = cellid.CellID(face<<61 | off&(1<<61-1) | 1)
		} else {
			// Near an indexed cell: inside its level-2 ancestor.
			k := fx.kvs[int(pick)%len(fx.kvs)].Key
			w := k.Parent(max(k.Level()-2, 0))
			n := uint64(w.RangeMax()-w.RangeMin())/2 + 1
			leaf = w.RangeMin() + cellid.CellID(off%n*2)
		}
		e, lo, hi := fx.tr.FindRange(leaf)
		re, rlo, rhi := findRangeRef(fx.tr, leaf)
		if e != re || e != fx.tr.Find(leaf) {
			t.Fatalf("%s δ%d: FindRange(%v) = %#x, reference %#x, Find %#x",
				fx.name, fx.tr.Delta(), leaf, e, re, fx.tr.Find(leaf))
		}
		ref := rangeCell(rlo, rhi)
		outer := ref
		if ref.Level() > 0 {
			outer = ref.ImmediateParent()
		}
		if lo > rlo || hi < rhi || lo < outer.RangeMin() || hi > outer.RangeMax() {
			t.Fatalf("%s δ%d: FindRange(%v) range [%v, %v] not between the slot %v and its parent %v",
				fx.name, fx.tr.Delta(), leaf, lo, hi, ref, outer)
		}
		probes := []cellid.CellID{lo, hi, lo + (hi-lo)/2 | 1}
		if c := rangeCell(lo, hi); !c.IsLeaf() {
			for _, q := range c.Children() {
				probes = append(probes, q.RangeMin(), q.RangeMax())
			}
		}
		for _, p := range probes {
			if got := fx.tr.Find(p); got != e {
				t.Fatalf("%s δ%d: FindRange(%v) = %#x over [%v, %v], but Find(%v) = %#x",
					fx.name, fx.tr.Delta(), leaf, e, lo, hi, p, got)
			}
		}
	})
}
