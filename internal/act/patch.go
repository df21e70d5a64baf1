// Incremental trie maintenance: Patch derives the next published tree from
// the previous one by rebuilding only the dirty subtrees, instead of
// re-deriving every node from the full cell set. The two trees share one
// append-only arena: nodes on the path from a face root down to a dirty
// region are copied to fresh indices at the arena's end (copy-on-write path
// copying, a few KB), the copies' slot ranges covering the region are
// cleared, and the region's new cells are inserted through the normal
// key-extension path, appending further fresh nodes. No slot a previous
// tree can reach is ever written — appends land beyond every published
// tree's length, exactly like the shared lookup table — so readers of any
// earlier snapshot stay race-free while the writer patches.
//
// Superseded originals and unlinked subtrees stay allocated ("orphans"):
// the only cost is arena footprint, which the garbage accounting exposes so
// the owner can fall back to a compacting full Build once patching has
// leaked enough.
//
// A patch preserves each face's frozen layout (prefix, band anchor). That is
// always correct for deletions and for insertions within the face's common
// prefix; the few mutations a frozen layout cannot absorb — a region outside
// the prefix, a region swallowing the face, a new cell so deep that key
// extension under the old anchor would pass the leaf level — make Patch
// report ok=false, and the caller rebuilds from scratch.
package act

import (
	"errors"

	"actjoin/internal/cellid"
	"actjoin/internal/cellindex"
	"actjoin/internal/fault"
)

// PatchRegion is one dirty subtree to replace: every cell of the previous
// tree inside Root's extent is dropped, and KVs (sorted, disjoint, all
// contained in Root) become the region's new contents.
type PatchRegion struct {
	Root cellid.CellID
	KVs  []cellindex.KeyEntry
}

// Patch returns a new tree equal — probe for probe — to Build over the full
// updated cell set, sharing t's arena and rebuilding only the given regions
// (sorted by range, non-overlapping). totalCells is the updated overall
// cell count (for NumCells). t itself is never modified — the trees share
// backing memory, but every write lands beyond t's length — so concurrent
// readers of t (and of any earlier tree in the same patch chain) are safe.
// ok is false when the regions cannot be expressed in t's frozen layout;
// the caller must fall back to a full Build. Patches must be chained
// linearly (each from the latest tree), which the publish mutex guarantees.
// When the arena's spare capacity runs out, the append that needs more
// reallocates it: nt gets a copy of the whole arena, and t keeps the old one.
func (t *Tree) Patch(regions []PatchRegion, totalCells int) (nt *Tree, ok bool) {
	return t.patch(regions, totalCells, false)
}

// PatchInCapacity is Patch that never reallocates an arena GrowArena
// reserved: a patch that needs more nodes than such an arena's spare
// capacity is refused with ok=false, like a layout refusal. Its writes up
// to that point are appends past t's length that no tree can reach,
// overwritten by the next patch. A caller that has a fresh arena on the way
// (a compaction in flight) can wait for it instead of paying for a growth
// copy of the old one. On an arena sized exactly by Build, whose owner
// reserved nothing, it is Patch.
func (t *Tree) PatchInCapacity(regions []PatchRegion, totalCells int) (nt *Tree, ok bool) {
	defer func() {
		if r := recover(); r != nil {
			if r != errArenaFull {
				panic(r)
			}
			nt, ok = nil, false
		}
	}()
	return t.patch(regions, totalCells, true)
}

// errArenaFull is the panic value newNode raises in a fixed-capacity patch
// whose arena has no room for another node; PatchInCapacity recovers it.
var errArenaFull = errors.New("act: patch needs more nodes than the arena's capacity")

// patch implements Patch and PatchInCapacity; fixed forbids growing a
// reserved arena.
//
//act:seam
func (t *Tree) patch(regions []PatchRegion, totalCells int, fixed bool) (nt *Tree, ok bool) {
	// Injected faults surface as a layout refusal — the failure mode every
	// caller already falls back from. The point sits before any validation
	// or write, so a refusal here leaves the arena untouched like any other.
	if fault.Hit(fault.TreePatch) != nil {
		return nil, false
	}
	type freshFace struct {
		face int
		kvs  []cellindex.KeyEntry
		lay  faceLayout
	}
	var clears []PatchRegion
	var fresh []freshFace

	// Validate every region against the frozen layout before writing
	// anything, so a refusal leaves the arena's length untouched.
	for _, r := range regions {
		lo, hi := r.Root.RangeMin(), r.Root.RangeMax()
		for _, kv := range r.KVs {
			// The level guard makes the containment requirement explicit: a
			// key coarser than Root would extend replicas outside the slots
			// clearRegion clears. (The id ordering already places ancestor
			// ids just outside every descendant's range, so the range check
			// alone suffices; the guard is defense in depth and
			// documentation.)
			if kv.Key < lo || kv.Key > hi || kv.Key.Level() < r.Root.Level() {
				return nil, false
			}
		}
		face := r.Root.Face()
		ft := &t.faces[face]
		if ft.root < 0 {
			// Previously empty face: build it from scratch inside the copy.
			if len(r.KVs) == 0 {
				continue
			}
			if len(fresh) > 0 && fresh[len(fresh)-1].face == face {
				fresh[len(fresh)-1].kvs = append(fresh[len(fresh)-1].kvs, r.KVs...)
			} else {
				fresh = append(fresh, freshFace{face: face, kvs: append([]cellindex.KeyEntry(nil), r.KVs...)})
			}
			continue
		}
		if r.Root.Level() <= ft.prefixLevels {
			return nil, false // region swallows the whole face tree
		}
		if ft.prefixLevels > 0 &&
			r.Root.Path()>>(64-uint(2*ft.prefixLevels)) != ft.prefixBits {
			// Outside the face's common prefix: the old tree holds nothing
			// there, and new cells would need the prefix re-derived.
			if len(r.KVs) == 0 {
				continue
			}
			return nil, false
		}
		for _, kv := range r.KVs {
			if t.extendedLevel(kv.Key.Level(), ft.offset) > maxIndexLevel {
				return nil, false // extension under the old anchor overflows
			}
		}
		clears = append(clears, r)
	}
	for i := range fresh {
		fresh[i].lay = t.faceLayout(fresh[i].kvs)
	}

	nt = &Tree{
		delta:            t.delta,
		span:             t.span,
		fanout:           t.fanout,
		entries:          t.entries, // shared; every write appends beyond len
		numNodes:         t.numNodes,
		faces:            t.faces,
		numCells:         totalCells,
		numExtended:      t.numExtended,
		maxCellLevel:     t.maxCellLevel,
		garbage:          t.garbage,
		reserved:         t.reserved,
		fixedArena:       fixed && t.reserved,
		disablePrefix:    t.disablePrefix,
		disableAnchoring: t.disableAnchoring,
	}
	immutable := int32(t.numNodes) // t's nodes; nt must copy before writing

	for _, r := range clears {
		ft := &nt.faces[r.Root.Face()]
		if !nt.clearRegion(ft, r.Root, immutable) {
			return nil, false
		}
		for _, kv := range r.KVs {
			nt.insert(ft, kv.Key, kv.Entry)
			if lvl := kv.Key.Level(); lvl > nt.maxCellLevel {
				// Deletions never shrink maxCellLevel back: a too-deep value
				// only costs batch joins some sort depth, never correctness.
				nt.maxCellLevel = lvl
			}
		}
	}
	for _, ff := range fresh {
		ft := nt.setupFace(ff.face, ff.lay)
		for _, kv := range ff.kvs {
			nt.insert(ft, kv.Key, kv.Entry)
		}
	}
	nt.fixedArena = false
	return nt, true
}

// GrowArena reallocates the node arena with spare capacity for extraNodes
// more nodes, so the next patches append without triggering a growth copy of
// the whole arena. It must only be called while the tree is still private to
// its builder (a freshly Built compaction result, before any snapshot is
// published from it): a shared arena must never be reallocated out from
// under a patch chain, and published trees keep their own array on growth
// anyway. Compared to letting append double the arena lazily, the explicit
// reallocation keeps the first post-compaction publish as cheap as every
// other patch — the whole point of compacting off the critical path — and it
// never orphans concurrently-held frozen views, which retain the arena they
// were built over. The reservation marks the arena: PatchInCapacity on this
// tree, or on any tree patched from it, never grows it.
//
//act:seam
func (t *Tree) GrowArena(extraNodes int) {
	if extraNodes <= 0 {
		return
	}
	t.reserved = true
	if cap(t.entries)-len(t.entries) >= extraNodes*t.fanout {
		return
	}
	fault.MustHit(fault.ArenaGrow)
	grown := make([]uint64, len(t.entries), len(t.entries)+extraNodes*t.fanout)
	copy(grown, t.entries)
	t.entries = grown
}

// cow returns a node index safe to write through: nodes created by this
// patch are returned as-is, nodes belonging to the previous tree are copied
// to a fresh index (the original keeps serving earlier snapshots and is
// accounted as garbage in the new tree's view).
func (t *Tree) cow(idx, immutable int32) int32 {
	if idx >= immutable {
		return idx
	}
	n := t.newNode()
	copy(t.entries[int(n)*t.fanout:(int(n)+1)*t.fanout],
		t.entries[int(idx)*t.fanout:(int(idx)+1)*t.fanout])
	t.garbage += t.fanout // the superseded original
	return n
}

// clearRegion copies the node path from the face root down to the region's
// band and zeroes every slot of the copies covering root's extent,
// orphaning subtrees hanging below it. The copied path is exactly the set
// of nodes the region's inserts will write into, so after a clear the
// normal insert path never touches a previous tree's node. Returns false
// when a value slot covers the region from a band above it — meaning a
// coarser cell still overlaps the region, which the dirty-tracking
// invariant rules out for well-formed patches.
func (t *Tree) clearRegion(ft *faceTree, root cellid.CellID, immutable int32) bool {
	path := root.Path()
	level := root.Level()
	cur := t.cow(ft.root, immutable)
	ft.root = cur
	pos := ft.prefixLevels
	span := ft.rootSpan
	for pos+span < level {
		idx := int(cur)*t.fanout + int(bitsAt(path, pos, span))
		e := t.entries[idx]
		if e == 0 {
			return true // the old tree holds nothing inside the region
		}
		if e&3 != 0 {
			return false // a coarser cell (or its replica) covers the region
		}
		child := t.cow(int32(e>>2)-1, immutable)
		t.entries[idx] = uint64(child+1) << 2
		cur = child
		pos += span
		span = t.delta
	}

	// Final band: clear every slot inside the region's extent — the same
	// slot set insert's key extension writes.
	base, count := extensionSlots(path, level, pos, span)
	nodeBase := int(cur) * t.fanout
	for i := uint64(0); i < count; i++ {
		idx := nodeBase + int(base+i)
		e := t.entries[idx]
		switch {
		case e == 0:
		case e&3 != 0:
			t.numExtended--
			t.entries[idx] = 0
		default:
			t.orphan(int32(e>>2) - 1)
			t.entries[idx] = 0
		}
	}
	return true
}

// orphan accounts an unlinked node and its descendants as arena garbage.
func (t *Tree) orphan(node int32) {
	t.garbage += t.fanout
	base := int(node) * t.fanout
	for i := 0; i < t.fanout; i++ {
		e := t.entries[base+i]
		if e == 0 {
			continue
		}
		if e&3 != 0 {
			t.numExtended--
		} else {
			t.orphan(int32(e>>2) - 1)
		}
	}
}
