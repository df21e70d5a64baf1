package actjoin

import (
	"cmp"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"actjoin/internal/act"
	"actjoin/internal/cellid"
	"actjoin/internal/cellindex"
	"actjoin/internal/refs"
	"actjoin/internal/supercover"
)

func ropeCell(face int, children ...int) supercover.Cell {
	id := cellid.FaceCell(face)
	for _, c := range children {
		id = id.Child(c)
	}
	return supercover.Cell{ID: id, Refs: []refs.Ref{refs.MakeRef(1, true)}}
}

// cellEdit is the edit replacing region's cells by the buffer's [from, to).
func cellEdit(region cellid.CellID, from, to int) ropeEdit {
	return ropeEdit{lo: region.RangeMin(), hi: region.RangeMax(), from: from, to: to}
}

// ropeRuns counts a rope's runs.
func ropeRuns(r *cellRope) int {
	n := 0
	r.eachRun(func([]supercover.Cell) { n++ })
	return n
}

// ropeNodes collects the nodes of a rope's tree.
func ropeNodes(r *cellRope) map[*ropeNode]bool {
	nodes := map[*ropeNode]bool{}
	var walk func(n *ropeNode)
	walk = func(n *ropeNode) {
		nodes[n] = true
		if !n.leaf {
			for _, e := range n.ents {
				walk(e.kid)
			}
		}
	}
	if r.top.kid != nil {
		walk(r.top.kid)
	}
	return nodes
}

// checkRopeShape asserts the tree's invariants: every leaf at one depth,
// every node within the fanout and every non-root node at least half full,
// entries summarizing their subtrees, runs sorted, disjoint and non-empty.
// It returns the height.
func checkRopeShape(t *testing.T, r *cellRope) int {
	t.Helper()
	if r.top.kid == nil {
		if r.Len() != 0 {
			t.Fatalf("empty rope reports %d cells", r.Len())
		}
		return 0
	}
	leafDepth := -1
	var prev *supercover.Cell
	var walk func(e ropeEntry, depth int)
	walk = func(e ropeEntry, depth int) {
		n := e.kid
		if len(n.ents) > ropeFanout || (depth > 0 && len(n.ents) < ropeMinFill) {
			t.Fatalf("node at depth %d holds %d entries", depth, len(n.ents))
		}
		size := 0
		for _, k := range n.ents {
			size += k.size
			if n.leaf {
				if len(k.run) == 0 || k.size != len(k.run) || k.last != k.run[len(k.run)-1].ID || k.arr == nil {
					t.Fatalf("leaf entry out of step with its run")
				}
				for i := range k.run {
					if prev != nil && prev.ID >= k.run[i].ID {
						t.Fatalf("cells out of order: %v then %v", prev.ID, k.run[i].ID)
					}
					prev = &k.run[i]
				}
			} else {
				walk(k, depth+1)
			}
		}
		if n.leaf {
			if leafDepth >= 0 && leafDepth != depth {
				t.Fatalf("leaves at depths %d and %d", leafDepth, depth)
			}
			leafDepth = depth
		}
		if size != e.size || e.last != n.ents[len(n.ents)-1].last {
			t.Fatalf("entry at depth %d records %d cells / last %v, subtree holds %d / %v",
				depth, e.size, e.last, size, n.ents[len(n.ents)-1].last)
		}
	}
	walk(r.top, 0)
	return leafDepth + 1
}

// TestCellRopeSpliceAndMerge covers the splice the incremental publish is
// built from: boundary splits, replacement, range extraction and counting,
// and the predecessor lookup behind the straddle check.
func TestCellRopeSpliceAndMerge(t *testing.T) {
	cells := []supercover.Cell{
		ropeCell(0, 0), ropeCell(0, 1), ropeCell(0, 2), ropeCell(0, 3),
		ropeCell(1, 0), ropeCell(1, 1), ropeCell(1, 2), ropeCell(1, 3),
	}
	rope := ropeFromCells(cells)
	if rope.Len() != len(cells) {
		t.Fatalf("Len %d, want %d", rope.Len(), len(cells))
	}

	// Replace the one cell of face 0, child 2 by two finer ones.
	region := cellid.FaceCell(0).Child(2)
	fresh := []supercover.Cell{ropeCell(0, 2, 0), ropeCell(0, 2, 3)}
	out := rope.splice([]ropeEdit{cellEdit(region, 0, 2)}, fresh)
	want := append(append(append([]supercover.Cell{}, cells[:2]...), fresh...), cells[3:]...)
	if got := out.appendAll(nil); !reflect.DeepEqual(got, want) {
		t.Fatalf("spliced rope = %v, want %v", got, want)
	}
	if n := ropeRuns(out); n != 3 {
		t.Fatalf("splice left %d runs, want 3 (head, fresh, tail)", n)
	}
	if got := rope.appendAll(nil); !reflect.DeepEqual(got, cells) {
		t.Fatal("splice changed the base rope")
	}

	// appendRange extracts a region's frozen cells; countRange counts them.
	got := out.appendRange(nil, cellid.FaceCell(1).RangeMin(), cellid.FaceCell(1).RangeMax())
	if !reflect.DeepEqual(got, cells[4:]) {
		t.Fatalf("appendRange = %v, want %v", got, cells[4:])
	}
	if n := out.countRange(region.RangeMin(), region.RangeMax()); n != 2 {
		t.Fatalf("countRange over the region = %d, want 2", n)
	}

	// before finds the last cell left of an id, nil left of everything.
	if c := out.before(region.RangeMin()); c == nil || c.ID != cells[1].ID {
		t.Fatalf("before(region) = %v, want %v", c, cells[1].ID)
	}
	if c := out.before(cells[0].ID.RangeMin()); c != nil {
		t.Fatalf("before(first cell) = %v, want nil", c.ID)
	}
}

// TestCellRopeMergesContiguousRuns: runs that continue each other in the
// same backing array must re-merge into one run — both halves of a clean
// run split around an empty region, and adjacent dirty regions emitted into
// one buffer.
func TestCellRopeMergesContiguousRuns(t *testing.T) {
	cells := []supercover.Cell{
		ropeCell(0, 0), ropeCell(0, 1), ropeCell(0, 2), ropeCell(0, 3),
	}
	rope := ropeFromCells(cells)

	// An empty region between child 1 and child 2 splits the run; the two
	// halves are contiguous in the original array and must rejoin.
	region := cellid.FaceCell(0).Child(1).Child(2)
	out := rope.splice([]ropeEdit{cellEdit(region, 0, 0)}, nil)
	if ropeRuns(out) != 1 || out.Len() != len(cells) {
		t.Fatalf("split around an empty region left %d runs (len %d), want 1 run",
			ropeRuns(out), out.Len())
	}

	// Two regions emitted back-to-back into one buffer merge as well.
	buf := []supercover.Cell{ropeCell(2, 0), ropeCell(2, 1), ropeCell(2, 2)}
	merged := (&cellRope{}).splice([]ropeEdit{
		{lo: buf[0].ID.RangeMin(), hi: buf[1].ID.RangeMax(), from: 0, to: 2},
		cellEdit(buf[2].ID, 2, 3),
	}, buf)
	if ropeRuns(merged) != 1 || merged.Len() != 3 {
		t.Fatalf("contiguous emits left %d runs (len %d), want 1 run", ropeRuns(merged), merged.Len())
	}
	// Runs from unrelated backings must not merge.
	other := []supercover.Cell{ropeCell(3, 0)}
	merged = merged.splice([]ropeEdit{cellEdit(other[0].ID, 0, 1)}, other)
	if ropeRuns(merged) != 2 {
		t.Fatalf("unrelated run merged: %d runs", ropeRuns(merged))
	}
}

// leafRope builds a rope of n single-cell runs over a 2n-cell array of
// consecutive leaf cells (every other cell, so no two runs are contiguous),
// through one splice of n edits. It returns the rope and the array.
func leafRope(n int) (*cellRope, []supercover.Cell) {
	leaf := cellid.FaceCell(0).RangeMin() // face 0's first leaf cell
	cells := make([]supercover.Cell, 2*n)
	for i := range cells {
		cells[i] = supercover.Cell{ID: cellid.CellID(uint64(leaf) + uint64(2*i)), Refs: []refs.Ref{refs.MakeRef(1, true)}}
	}
	edits := make([]ropeEdit, n)
	for i := range edits {
		id := cells[2*i].ID
		edits[i] = ropeEdit{lo: id, hi: id, from: 2 * i, to: 2*i + 1}
	}
	return (&cellRope{}).splice(edits, cells), cells
}

// TestCellRopeSpliceCopiesOnlyPaths: splicing one region into a rope of
// 100k runs copies O(height) nodes and shares the rest of the tree. A flat
// run list would copy every run header: ~2.4 MB here.
func TestCellRopeSpliceCopiesOnlyPaths(t *testing.T) {
	const runs = 100_000
	rope, cells := leafRope(runs)
	if n := ropeRuns(rope); n != runs {
		t.Fatalf("built %d runs, want %d", n, runs)
	}
	height := checkRopeShape(t, rope)
	if height > 5 {
		t.Fatalf("height %d for %d runs", height, runs)
	}

	// Replace the middle run's cell and its gap neighbour by one fresh cell.
	mid := cells[runs]
	fresh := []supercover.Cell{{ID: mid.ID, Refs: mid.Refs}}
	edits := []ropeEdit{{lo: mid.ID, hi: cells[runs+1].ID, from: 0, to: 1}}
	var out *cellRope
	minAlloc := ^uint64(0)
	var ms runtime.MemStats
	for try := 0; try < 5; try++ {
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		out = rope.splice(edits, fresh)
		runtime.ReadMemStats(&ms)
		minAlloc = min(minAlloc, ms.TotalAlloc-before)
	}
	checkRopeShape(t, out)
	if out.Len() != rope.Len() || ropeRuns(out) != runs {
		t.Fatalf("splice left %d cells in %d runs, want %d in %d", out.Len(), ropeRuns(out), rope.Len(), runs)
	}
	// A path is height nodes, a split adds at most one more per level, and
	// a node holds at most ropeFanout+2 entries while it is rebuilt.
	const nodeBytes = 64 + (ropeFanout+2)*int(unsafe.Sizeof(ropeEntry{}))
	limit := uint64(4 * height * nodeBytes)
	if minAlloc > limit {
		t.Fatalf("one-region splice allocated %d bytes, limit %d (height %d)", minAlloc, limit, height)
	}
	t.Logf("one-region splice into %d runs: %d bytes allocated (limit %d, height %d)", runs, minAlloc, limit, height)
	shared := ropeNodes(rope)
	copied := 0
	for n := range ropeNodes(out) {
		if !shared[n] {
			copied++
		}
	}
	if copied > 2*height {
		t.Fatalf("splice copied %d nodes, want at most %d (height %d)", copied, 2*height, height)
	}
}

// TestCompactBaseRepacksSparseArrays: compaction re-packs exactly the runs
// whose backing array the rope covers less than half of, shares the rest,
// and leaves the rope retaining no more dead cells than live ones.
func TestCompactBaseRepacksSparseArrays(t *testing.T) {
	rope, cells := leafRope(2000) // array A: 4000 cells, half of them live
	var arrA *ropeArray
	for a := range rope.liveCells() {
		arrA = a
	}
	// Array B: 1000 cells past A's, all live.
	leaf := cells[len(cells)-1].ID
	b := make([]supercover.Cell, 1000)
	for i := range b {
		b[i] = supercover.Cell{ID: cellid.CellID(uint64(leaf) + uint64(2*(i+1))), Refs: cells[0].Refs}
	}
	rope = rope.splice([]ropeEdit{{lo: b[0].ID, hi: b[len(b)-1].ID, from: 0, to: len(b)}}, b)
	// Splice away the first 600 of A's live cells and 100 of B's.
	rope = rope.splice([]ropeEdit{
		{lo: cells[0].ID, hi: cells[1199].ID},
		{lo: b[0].ID, hi: b[99].ID},
	}, nil)
	live := rope.liveCells()
	if live[arrA] != 1400 || len(live) != 2 {
		t.Fatalf("before compaction: %d arrays, A holds %d live cells, want 2 arrays and 1400", len(live), live[arrA])
	}
	var arrB *ropeArray
	for a := range live {
		if a != arrA {
			arrB = a
		}
	}

	kvs, table := cellindex.Encode(rope.appendAll(nil))
	base := &part{cells: rope, tree: act.Build(kvs, act.Delta4), table: table, opt: options{delta: act.Delta4}}
	res := compactBase(base, func() *part { return base }, nil)
	if res == nil {
		t.Fatal("compaction returned nothing")
	}
	if got, want := res.cells.appendAll(nil), rope.appendAll(nil); !reflect.DeepEqual(got, want) {
		t.Fatal("compaction changed the cells")
	}
	checkRopeShape(t, res.cells)
	after := res.cells.liveCells()
	if _, ok := after[arrA]; ok {
		t.Fatal("compacted rope still references the sparse array")
	}
	if after[arrB] != 900 {
		t.Fatalf("the dense array holds %d of the compacted rope's cells, want 900 (shared)", after[arrB])
	}
	retained := 0
	for a := range after {
		retained += a.cells
	}
	if dead := retained - res.cells.Len(); dead > res.cells.Len() {
		t.Fatalf("compacted rope retains %d dead cells beside %d live", dead, res.cells.Len())
	}
	// A rope with no sparse array is shared whole.
	if again := res.cells.repack(); again != res.cells {
		t.Fatal("repacking a dense rope copied it")
	}
}

// FuzzCellRope turns its input into a script of region splices over a rope
// of a few thousand runs and applies each to the rope and to a flat
// reference. After every step the rope must hold the reference's cells, in a
// well-formed tree, answer range counts, extractions and predecessor lookups
// as the reference does, and share the memory of every cell outside the
// replaced regions with the rope it was spliced from.
func FuzzCellRope(f *testing.F) {
	f.Add([]byte{3, 0x12, 0x34, 0x56, 0x78, 0x9a, 0xbc, 0xde, 0xf0})
	f.Add([]byte{0, 5, 0, 7, 1, 200, 3, 4, 5, 6, 0, 0, 0, 0})
	f.Add([]byte{1, 0x81, 0xff, 0xff, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, 0x09})
	f.Add([]byte{2, 6, 1, 2, 3, 6, 1, 2, 4, 6, 1, 2, 5, 1, 0, 0, 0xff})
	const level = 6 // the universe: face 0's cells at this level
	universe := make([]cellid.CellID, 1<<(2*level))
	for k := range universe {
		id := cellid.FaceCell(0)
		for l := level - 1; l >= 0; l-- {
			id = id.Child(k >> (2 * l) & 3)
		}
		universe[k] = id
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		// The starting rope: every universe cell, spread over 1-4 arrays
		// interleaved cell by cell, so most cells are runs of their own.
		arrays := 1 + int(data[0])%4
		data = data[1:]
		rope := &cellRope{}
		var ref []supercover.Cell
		for a := 0; a < arrays; a++ {
			var buf []supercover.Cell
			for k := a; k < len(universe); k += arrays {
				buf = append(buf, supercover.Cell{ID: universe[k]})
			}
			edits := make([]ropeEdit, len(buf))
			for i := range buf {
				edits[i] = cellEdit(buf[i].ID, i, i+1)
			}
			rope = rope.splice(edits, buf)
		}
		for _, id := range universe {
			ref = append(ref, supercover.Cell{ID: id})
		}
		checkRope(t, rope, ref, nil, nil)

		for step := 0; len(data) >= 4 && step < 48; step++ {
			// One step: up to three regions, each a cell at level 1-6 of
			// face 0 or 1 (face 1 lies past every cell), replaced by a
			// pseudo-random subset of its level-6 descendants.
			nreg := 1 + int(data[0])%3
			var regions []cellid.CellID
			for r := 0; r < nreg && len(data) >= 4; r++ {
				lv := 1 + int(data[0]>>2)%level
				id := cellid.FaceCell(int(data[0] >> 7))
				pos := int(data[1])<<8 | int(data[2])
				for l := 0; l < lv; l++ {
					id = id.Child(pos >> (2 * l) & 3)
				}
				regions = append(regions, id)
				data = data[3:]
			}
			seed := int64(data[0])
			data = data[1:]
			slices.SortFunc(regions, func(a, b cellid.CellID) int { return cmp.Compare(a.RangeMin(), b.RangeMin()) })
			// Keep the regions disjoint: drop any that overlaps its predecessor.
			kept := regions[:1]
			for _, r := range regions[1:] {
				if r.RangeMin() > kept[len(kept)-1].RangeMax() {
					kept = append(kept, r)
				}
			}
			rng := rand.New(rand.NewSource(seed))
			var buf []supercover.Cell
			counts := make([]int, len(kept))
			for i, r := range kept {
				for _, d := range descendants(r, level) {
					if rng.Intn(3) == 0 {
						buf = append(buf, supercover.Cell{ID: d})
						counts[i]++
					}
				}
			}
			edits := make([]ropeEdit, len(kept))
			off := 0
			var next []supercover.Cell
			ri := 0
			for i, r := range kept {
				edits[i] = cellEdit(r, off, off+counts[i])
				for ri < len(ref) && ref[ri].ID < r.RangeMin() {
					next = append(next, ref[ri])
					ri++
				}
				for ri < len(ref) && ref[ri].ID <= r.RangeMax() {
					ri++
				}
				next = append(next, buf[off:off+counts[i]]...)
				off += counts[i]
			}
			next = append(next, ref[ri:]...)
			out := rope.splice(edits, buf)
			checkRope(t, out, next, rope, kept)
			rope, ref = out, next
		}
	})
}

// descendants lists id's descendants at level (id itself at its own level),
// in cell order.
func descendants(id cellid.CellID, level int) []cellid.CellID {
	if id.Level() == level {
		return []cellid.CellID{id}
	}
	var out []cellid.CellID
	for c := 0; c < 4; c++ {
		out = append(out, descendants(id.Child(c), level)...)
	}
	return out
}

// checkRope asserts rope holds ref's cells in a well-formed tree and answers
// counts, extractions and predecessor lookups as ref does. With prev given,
// every cell outside the replaced regions must be prev's cell, same memory.
func checkRope(t *testing.T, rope *cellRope, ref []supercover.Cell, prev *cellRope, regions []cellid.CellID) {
	t.Helper()
	checkRopeShape(t, rope)
	got := rope.appendAll(nil)
	if rope.Len() != len(ref) || len(got) != len(ref) {
		t.Fatalf("rope holds %d cells (Len %d), reference %d", len(got), rope.Len(), len(ref))
	}
	for i := range got {
		if got[i].ID != ref[i].ID {
			t.Fatalf("cell %d: rope %v, reference %v", i, got[i].ID, ref[i].ID)
		}
	}
	// Ranges: every region's, and spans between reference cells.
	ranges := [][2]cellid.CellID{{0, ^cellid.CellID(0)}}
	for _, r := range regions {
		ranges = append(ranges, [2]cellid.CellID{r.RangeMin(), r.RangeMax()})
	}
	for i := 0; i+7 < len(ref); i += len(ref)/5 + 1 {
		ranges = append(ranges, [2]cellid.CellID{ref[i].ID + 1, ref[i+7].ID})
	}
	for _, rg := range ranges {
		var want []supercover.Cell
		for _, c := range ref {
			if c.ID >= rg[0] && c.ID <= rg[1] {
				want = append(want, c)
			}
		}
		if n := rope.countRange(rg[0], rg[1]); n != len(want) {
			t.Fatalf("countRange(%v, %v) = %d, want %d", rg[0], rg[1], n, len(want))
		}
		if ext := rope.appendRange(nil, rg[0], rg[1]); len(ext) != len(want) || (len(want) > 0 && !reflect.DeepEqual(ext, want)) {
			t.Fatalf("appendRange(%v, %v) holds %d cells, want %d", rg[0], rg[1], len(ext), len(want))
		}
		k := lowerBound(ref, rg[0])
		c := rope.before(rg[0])
		if (k == 0) != (c == nil) || (c != nil && c.ID != ref[k-1].ID) {
			t.Fatalf("before(%v) = %v, reference index %d", rg[0], c, k)
		}
	}
	if prev == nil {
		return
	}
	was := map[cellid.CellID]*supercover.Cell{}
	prev.eachRun(func(run []supercover.Cell) {
		for i := range run {
			was[run[i].ID] = &run[i]
		}
	})
	rope.eachRun(func(run []supercover.Cell) {
		for i := range run {
			inside := false
			for _, r := range regions {
				if r.RangeMin() <= run[i].ID && run[i].ID <= r.RangeMax() {
					inside = true
				}
			}
			if !inside && was[run[i].ID] != &run[i] {
				t.Fatalf("clean cell %v was copied by the splice", run[i].ID)
			}
		}
	})
}
