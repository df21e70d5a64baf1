package act

import (
	"math/rand"
	"sort"
	"testing"

	"actjoin/internal/cellid"
	"actjoin/internal/cellindex"
	"actjoin/internal/geom"
	"actjoin/internal/refs"
)

// TestBuildPreallocExact: the node-count pre-pass must size the arena
// exactly — any over- or under-count leaves cap != len after the build.
// (ACT1 skips the pre-pass — growth copies of 4-slot nodes are cheaper than
// counting — but must still produce a consistent arena.)
func TestBuildPreallocExact(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for round := 0; round < 30; round++ {
		kvs := randomDisjointCells(rng, 400)
		for _, delta := range []int{2, 4} {
			tr := Build(kvs, delta)
			if cap(tr.entries) != len(tr.entries) {
				t.Fatalf("round %d delta %d: arena len %d cap %d — pre-pass not exact",
					round, delta, len(tr.entries), cap(tr.entries))
			}
		}
		for _, delta := range []int{1, 2, 4} {
			tr := Build(kvs, delta)
			if got := tr.NumNodes() * tr.Fanout(); got != len(tr.entries) {
				t.Fatalf("round %d delta %d: %d nodes do not fill %d slots",
					round, delta, tr.NumNodes(), len(tr.entries))
			}
		}
	}
}

// randomCellsUnder generates random disjoint cells inside root's extent.
func randomCellsUnder(rng *rand.Rand, tbl *refs.Table, root cellid.CellID, maxCells int) []cellindex.KeyEntry {
	var out []cellindex.KeyEntry
	var walk func(c cellid.CellID)
	walk = func(c cellid.CellID) {
		if len(out) >= maxCells {
			return
		}
		r := rng.Float64()
		switch {
		case r < 0.35:
			out = append(out, cellindex.KeyEntry{
				Key:   c,
				Entry: tbl.Encode([]refs.Ref{refs.MakeRef(uint32(rng.Intn(500)), rng.Intn(2) == 0)}),
			})
		case r < 0.85 && c.Level() < cellid.MaxLevel-1:
			for _, child := range c.Children() {
				if rng.Float64() < 0.6 {
					walk(child)
				}
			}
		}
	}
	walk(root)
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// applyRegions computes the reference cell set of a patch: every old cell
// inside a region's root is dropped, the region's cells replace them.
func applyRegions(kvs []cellindex.KeyEntry, regions []PatchRegion) []cellindex.KeyEntry {
	var out []cellindex.KeyEntry
	inRegion := func(k cellid.CellID) bool {
		for _, r := range regions {
			if k >= r.Root.RangeMin() && k <= r.Root.RangeMax() {
				return true
			}
		}
		return false
	}
	for _, kv := range kvs {
		if !inRegion(kv.Key) {
			out = append(out, kv)
		}
	}
	for _, r := range regions {
		out = append(out, r.KVs...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// pickRegionRoot returns a subtree root no existing cell strictly contains:
// an ancestor of an existing cell (disjointness guarantees no coarser cell
// overlaps it), or a root inside an empty face.
func pickRegionRoot(rng *rand.Rand, kvs []cellindex.KeyEntry) cellid.CellID {
	if len(kvs) > 0 && rng.Intn(4) != 0 {
		k := kvs[rng.Intn(len(kvs))].Key
		up := rng.Intn(k.Level() + 1)
		return k.Parent(k.Level() - up)
	}
	used := map[int]bool{}
	for _, kv := range kvs {
		used[kv.Key.Face()] = true
	}
	for f := 0; f < cellid.NumFaces; f++ {
		if !used[f] {
			id := cellid.FaceCell(f)
			for l := 0; l < 1+rng.Intn(4); l++ {
				id = id.Child(rng.Intn(4))
			}
			return id
		}
	}
	k := kvs[rng.Intn(len(kvs))].Key
	return k.Parent(k.Level() / 2)
}

// TestPatchMatchesRebuild: a chain of random patches must stay probe-exact
// against a from-scratch Build of the same cell set, for every granularity.
func TestPatchMatchesRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	tbl := refs.NewTable()
	for round := 0; round < 15; round++ {
		kvs := randomDisjointCells(rng, 250)
		for _, delta := range []int{1, 2, 4} {
			cur := Build(kvs, delta)
			state := append([]cellindex.KeyEntry(nil), kvs...)
			for step := 0; step < 6; step++ {
				root := pickRegionRoot(rng, state)
				newKVs := randomCellsUnder(rng, tbl, root, 40)
				regions := []PatchRegion{{Root: root, KVs: newKVs}}
				state = applyRegions(state, regions)

				patched, ok := cur.Patch(regions, len(state))
				if !ok {
					// Legitimate fallback (e.g. region outside the frozen
					// prefix): rebuild, like the production caller does.
					cur = Build(state, delta)
					continue
				}
				ref := Build(state, delta)
				compareProbes(t, rng, patched, ref, state, round, delta, step)
				if st := patched.ComputeStats(); st.NumValueSlots != patched.NumValueSlots() {
					t.Fatalf("round %d delta %d step %d: value-slot accounting %d vs reachable %d",
						round, delta, step, patched.NumValueSlots(), st.NumValueSlots)
				}
				if patched.NumCells() != len(state) {
					t.Fatalf("cell count %d, want %d", patched.NumCells(), len(state))
				}
				cur = patched
			}
		}
	}
}

func compareProbes(t *testing.T, rng *rand.Rand, got, want *Tree, kvs []cellindex.KeyEntry, round, delta, step int) {
	t.Helper()
	for i := 0; i < 400; i++ {
		p := geom.Point{X: rng.Float64()*360 - 180, Y: rng.Float64()*180 - 90}
		leaf := cellid.FromPoint(p)
		if g, w := got.Find(leaf), want.Find(leaf); g != w {
			t.Fatalf("round %d delta %d step %d: Find(%v) = %#x, rebuild says %#x",
				round, delta, step, leaf, g, w)
		}
	}
	for i := 0; i < len(kvs); i += 3 {
		for _, leaf := range []cellid.CellID{
			kvs[i].Key.RangeMin(), kvs[i].Key.RangeMax(),
			kvs[i].Key.RangeMin() - 2, kvs[i].Key.RangeMax() + 2,
		} {
			if !leaf.IsValid() || !leaf.IsLeaf() {
				continue
			}
			if g, w := got.Find(leaf), want.Find(leaf); g != w {
				t.Fatalf("round %d delta %d step %d: boundary Find(%v) = %#x, want %#x",
					round, delta, step, leaf, g, w)
			}
		}
	}
}

// TestPatchInCapacity: on a reserved arena a fixed-capacity patch either
// fits the spare capacity, keeps the backing array and equals Patch probe
// for probe, or is refused without touching its input tree, and Patch on
// the same input then grows the arena. On an exact Build arena it grows
// like Patch.
func TestPatchInCapacity(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	tbl := refs.NewTable()
	var kvs []cellindex.KeyEntry
	for len(kvs) < 50 {
		kvs = randomDisjointCells(rng, 200)
	}
	cur := Build(kvs, Delta2)
	root := pickRegionRoot(rng, kvs)
	regions := []PatchRegion{{Root: root, KVs: randomCellsUnder(rng, tbl, root, 20)}}
	if nt, ok := cur.PatchInCapacity(regions, len(applyRegions(kvs, regions))); !ok || nt.ArenaCapNodes() == cur.ArenaCapNodes() {
		t.Fatalf("PatchInCapacity on an exact arena: ok %v, capacity %d nodes before and after", ok, cur.ArenaCapNodes())
	}
	cur.GrowArena(8)
	state := append([]cellindex.KeyEntry(nil), kvs...)
	fitted, refused := 0, 0
	for step := 0; step < 60; step++ {
		root := pickRegionRoot(rng, state)
		regions := []PatchRegion{{Root: root, KVs: randomCellsUnder(rng, tbl, root, 20)}}
		next := applyRegions(state, regions)
		arena, capNodes := cur.ArenaNodes(), cur.ArenaCapNodes()
		fixed, ok := cur.PatchInCapacity(regions, len(next))
		grown, gok := cur.Patch(regions, len(next))
		if cur.ArenaNodes() != arena || cur.ArenaCapNodes() != capNodes {
			t.Fatalf("step %d: patching changed the input tree's arena", step)
		}
		if !gok {
			if ok {
				t.Fatalf("step %d: PatchInCapacity accepted what Patch refused", step)
			}
			cur = Build(next, Delta2)
			cur.GrowArena(8)
			state = next
			continue
		}
		if ok {
			fitted++
			if fixed.ArenaCapNodes() != capNodes {
				t.Fatalf("step %d: PatchInCapacity replaced the arena", step)
			}
			compareProbes(t, rng, fixed, grown, next, 0, Delta2, step)
		} else {
			refused++
			if grown.ArenaNodes() <= capNodes {
				t.Fatalf("step %d: refused a patch of %d nodes into a capacity of %d", step, grown.ArenaNodes(), capNodes)
			}
		}
		cur, state = grown, next
	}
	if fitted == 0 || refused == 0 {
		t.Fatalf("%d patches fitted and %d were refused; want some of each", fitted, refused)
	}
}

// TestPatchGarbageAccumulates: repeated patches orphan nodes and the ratio
// grows until the owner would compact.
func TestPatchGarbageAccumulates(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	tbl := refs.NewTable()
	var kvs []cellindex.KeyEntry
	for len(kvs) < 50 {
		kvs = randomDisjointCells(rng, 200)
	}
	cur := Build(kvs, Delta2)
	state := append([]cellindex.KeyEntry(nil), kvs...)
	sawGarbage := false
	for step := 0; step < 40; step++ {
		root := pickRegionRoot(rng, state)
		regions := []PatchRegion{{Root: root, KVs: randomCellsUnder(rng, tbl, root, 20)}}
		state = applyRegions(state, regions)
		next, ok := cur.Patch(regions, len(state))
		if !ok {
			cur = Build(state, Delta2)
			continue
		}
		if next.GarbageSlots() > 0 {
			sawGarbage = true
			if r := next.GarbageRatio(); r <= 0 || r >= 1 {
				t.Fatalf("garbage ratio %v out of range", r)
			}
		}
		cur = next
	}
	if !sawGarbage {
		t.Fatal("40 random patches never orphaned a node")
	}
}

// TestPatchRejections: inputs the frozen layout cannot absorb must be
// refused, not mis-indexed.
func TestPatchRejections(t *testing.T) {
	tbl := refs.NewTable()
	entry := func(id uint32) refs.Entry { return tbl.Encode([]refs.Ref{refs.MakeRef(id, true)}) }
	deep := cellid.FaceCell(2).Child(1).Child(2).Child(3).Child(0).Child(1).Child(2)
	kvs := []cellindex.KeyEntry{
		{Key: deep.Child(0), Entry: entry(1)},
		{Key: deep.Child(1).Child(2), Entry: entry(2)},
	}
	tr := Build(kvs, Delta4)

	// A region outside the face's common prefix, carrying cells.
	outside := cellid.FaceCell(2).Child(3).Child(3).Child(3).Child(3).Child(3).Child(3).Child(3)
	if _, ok := tr.Patch([]PatchRegion{{Root: outside, KVs: []cellindex.KeyEntry{
		{Key: outside.Child(0), Entry: entry(3)},
	}}}, 3); ok {
		t.Fatal("accepted a region outside the frozen prefix")
	}
	// ... but an empty region there is a no-op patch.
	if _, ok := tr.Patch([]PatchRegion{{Root: outside}}, 2); !ok {
		t.Fatal("refused an empty region outside the prefix")
	}

	// A region swallowing the whole face (root not deeper than the prefix).
	if _, ok := tr.Patch([]PatchRegion{{Root: cellid.FaceCell(2)}}, 0); ok {
		t.Fatal("accepted a region swallowing the prefixed face")
	}

	// A cell not contained in its region root.
	if _, ok := tr.Patch([]PatchRegion{{Root: deep.Child(0), KVs: []cellindex.KeyEntry{
		{Key: deep.Child(1), Entry: entry(4)},
	}}}, 3); ok {
		t.Fatal("accepted a cell outside its region root")
	}

	// An ancestor of the region root: its key-extension replicas would
	// spill outside the cleared slots, so it must be refused (by the range
	// check — ancestor ids sit outside descendant ranges — with the level
	// guard as defense in depth).
	if _, ok := tr.Patch([]PatchRegion{{Root: deep.Child(0), KVs: []cellindex.KeyEntry{
		{Key: deep, Entry: entry(5)},
	}}}, 3); ok {
		t.Fatal("accepted a cell coarser than its region root")
	}
}

// TestPatchFreshFace: patching cells into a previously empty face builds
// that face inside the copy.
func TestPatchFreshFace(t *testing.T) {
	tbl := refs.NewTable()
	entry := func(id uint32) refs.Entry { return tbl.Encode([]refs.Ref{refs.MakeRef(id, true)}) }
	a := cellid.FaceCell(0).Child(1).Child(2)
	tr := Build([]cellindex.KeyEntry{{Key: a, Entry: entry(1)}}, Delta4)

	root := cellid.FaceCell(4).Child(2)
	kvs := []cellindex.KeyEntry{
		{Key: root.Child(0).Child(1), Entry: entry(2)},
		{Key: root.Child(3), Entry: entry(3)},
	}
	patched, ok := tr.Patch([]PatchRegion{{Root: root, KVs: kvs}}, 3)
	if !ok {
		t.Fatal("fresh-face patch refused")
	}
	state := []cellindex.KeyEntry{{Key: a, Entry: entry(1)}}
	state = append(state, kvs...)
	sort.Slice(state, func(i, j int) bool { return state[i].Key < state[j].Key })
	ref := Build(state, Delta4)
	rng := rand.New(rand.NewSource(3))
	compareProbes(t, rng, patched, ref, state, 0, Delta4, 0)
	// The original tree must be untouched.
	if got := tr.Find(root.Child(3).RangeMin()); got != refs.FalseHit {
		t.Fatalf("Patch mutated its receiver: %#x", got)
	}
}

// countReachable walks the tree from its face roots and counts the nodes a
// probe can visit — the ground truth NumNodes must match after any patch
// chain.
func countReachable(tr *Tree) int {
	var stack []int32
	for f := range tr.faces {
		if tr.faces[f].root >= 0 {
			stack = append(stack, tr.faces[f].root)
		}
	}
	count := 0
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		count++
		base := int(n) * tr.fanout
		for s := 0; s < tr.fanout; s++ {
			e := tr.entries[base+s]
			if e != 0 && e&3 == 0 {
				stack = append(stack, int32(e>>2)-1)
			}
		}
	}
	return count
}

// TestPatchNodeAccounting: NumNodes must report live (reachable) nodes only,
// with orphans accounted separately, across a chain of random patches.
func TestPatchNodeAccounting(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	tbl := refs.NewTable()
	var kvs []cellindex.KeyEntry
	for len(kvs) < 50 {
		kvs = randomDisjointCells(rng, 200)
	}
	cur := Build(kvs, Delta2)
	state := append([]cellindex.KeyEntry(nil), kvs...)
	sawOrphans := false
	for step := 0; step < 40; step++ {
		root := pickRegionRoot(rng, state)
		regions := []PatchRegion{{Root: root, KVs: randomCellsUnder(rng, tbl, root, 20)}}
		state = applyRegions(state, regions)
		next, ok := cur.Patch(regions, len(state))
		if !ok {
			cur = Build(state, Delta2)
			continue
		}
		if got, want := next.NumNodes(), countReachable(next); got != want {
			t.Fatalf("step %d: NumNodes() = %d, %d nodes reachable", step, got, want)
		}
		if next.NumNodes()+next.OrphanNodes() != next.ArenaNodes() {
			t.Fatalf("step %d: live %d + orphans %d != arena %d",
				step, next.NumNodes(), next.OrphanNodes(), next.ArenaNodes())
		}
		if st := next.ComputeStats(); st.NumNodes != next.NumNodes() || st.OrphanNodes != next.OrphanNodes() {
			t.Fatalf("step %d: ComputeStats reports %d/%d nodes, tree reports %d/%d",
				step, st.NumNodes, st.OrphanNodes, next.NumNodes(), next.OrphanNodes())
		}
		if next.OrphanNodes() > 0 {
			sawOrphans = true
		}
		cur = next
	}
	if !sawOrphans {
		t.Fatal("40 random patches never orphaned a node")
	}
}

// TestFullRebuildResetsMaxCellLevel: deleting the deepest cells through a
// patch keeps the stale maxCellLevel (the documented drift — deletions never
// shrink it), and a from-scratch Build over the same cell set resets it.
func TestFullRebuildResetsMaxCellLevel(t *testing.T) {
	tbl := refs.NewTable()
	entry := func(id uint32) refs.Entry { return tbl.Encode([]refs.Ref{refs.MakeRef(id, true)}) }
	shallow := cellid.FaceCell(1).Child(0).Child(1)
	deepRoot := cellid.FaceCell(1).Child(2)
	deep := deepRoot
	for deep.Level() < 12 {
		deep = deep.Child(3)
	}
	kvs := []cellindex.KeyEntry{
		{Key: shallow, Entry: entry(1)},
		{Key: deep, Entry: entry(2)},
	}
	sort.Slice(kvs, func(i, j int) bool { return kvs[i].Key < kvs[j].Key })
	tr := Build(kvs, Delta4)
	if tr.MaxCellLevel() != deep.Level() {
		t.Fatalf("MaxCellLevel = %d, want %d", tr.MaxCellLevel(), deep.Level())
	}

	patched, ok := tr.Patch([]PatchRegion{{Root: deepRoot}}, 1)
	if !ok {
		t.Fatal("deletion patch refused")
	}
	if patched.MaxCellLevel() != deep.Level() {
		t.Fatalf("patched MaxCellLevel = %d; the documented drift keeps %d",
			patched.MaxCellLevel(), deep.Level())
	}
	rebuilt := Build([]cellindex.KeyEntry{{Key: shallow, Entry: entry(1)}}, Delta4)
	if rebuilt.MaxCellLevel() != shallow.Level() {
		t.Fatalf("rebuilt MaxCellLevel = %d, want %d — full rebuild must reset the drift",
			rebuilt.MaxCellLevel(), shallow.Level())
	}
}
