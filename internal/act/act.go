// Package act implements the Adaptive Cell Trie (Section 3.1.2), the
// paper's core contribution: a static radix tree over the 64-bit cell ids of
// a super covering, optimized for probe throughput.
//
// Design points reproduced from the paper:
//
//   - One radix tree per face (up to six); the three face bits of the query
//     cell id select the tree.
//   - Configurable granularity δ — the number of quadtree levels consumed
//     per radix level. ACT1 (δ=1, fanout 4), ACT2 (δ=2, fanout 16) and ACT4
//     (δ=4, fanout 256) are the variants evaluated in Section 4.
//   - Key extension: an indexed cell whose level does not land on a radix
//     band boundary is replaced by all descendants at the next boundary,
//     replicating the payload. Every node lookup is then a single array
//     offset access and cells need not store their level.
//   - Combined pointer/value slots: each node is a flat array of 8-byte
//     tagged entries — a child pointer, the sentinel false hit, one or two
//     inlined polygon references, or a lookup-table offset. Because the
//     super covering is disjoint, a slot never needs both a pointer and a
//     value.
//   - A common path prefix stored once at the root of each face tree (full
//     path compression was evaluated by the authors and rejected; so were
//     ART-style adaptive node sizes).
//
// Band alignment: the radix bands of each face tree are anchored at the
// deepest indexed level Lmax rather than at multiples of δ — band
// boundaries are Lmax, Lmax-δ, Lmax-2δ, …, with a possibly narrower first
// band near the root. A precision-refined covering concentrates its cells
// exactly at the precision level (e.g. level 22 for the 4 m bound), and
// anchoring there means the bulk of the cells needs no key-extension
// replicas at all. This is what keeps ACT4's footprint comparable to the
// flat structures in the paper's Table 2 despite 22 mod 4 ≠ 0.
//
// Nodes live in a single []uint64 arena; "pointers" are arena node indices,
// which keeps the layout exactly as compact as the paper's tagged 8-byte
// pointers while remaining safe Go. A built tree is immutable; incremental
// snapshot publishes derive the next tree with Patch (patch.go), which
// shares the arena append-only and rebuilds only dirty subtrees, leaving
// orphaned nodes accounted in GarbageRatio until a compacting full Build.
package act

import (
	"fmt"
	"math/bits"

	"actjoin/internal/cellid"
	"actjoin/internal/cellindex"
	"actjoin/internal/refs"
)

// Granularity constants: quadtree levels per radix level.
const (
	Delta1 = 1 // ACT1, fanout 4
	Delta2 = 2 // ACT2, fanout 16
	Delta4 = 4 // ACT4, fanout 256 (the paper's default)
)

// maxIndexLevel is the deepest indexable cell level.
const maxIndexLevel = cellid.MaxLevel

// faceTree is the per-face radix tree.
type faceTree struct {
	root         int32  // arena node index, -1 when the face holds no cells
	prefixLevels int    // quadtree levels skipped before the root
	prefixBits   uint64 // the skipped 2*prefixLevels path bits, right-aligned
	rootSpan     int    // quadtree levels consumed by the root node (<= δ)
	firstShift   uint   // path shift for the root band
	firstMask    uint64 // bit mask for the root band
	offset       int    // band alignment: boundaries are ≡ offset (mod δ)
}

// Tree is an immutable Adaptive Cell Trie.
type Tree struct {
	delta    int      // quadtree levels per radix level
	span     uint     // 2*delta: path bits consumed per full radix level
	fanout   int      // 1 << span
	entries  []uint64 // node arena: node i occupies entries[i*fanout:(i+1)*fanout]
	numNodes int
	faces    [cellid.NumFaces]faceTree

	numCells     int  // indexed super-covering cells (before key extension)
	numExtended  int  // value slots written (after key extension)
	maxCellLevel int  // deepest indexed cell level across faces
	garbage      int  // arena slots orphaned by Patch (unreachable nodes)
	reserved     bool // GrowArena reserved the arena's spare capacity; patches keep the mark
	fixedArena   bool // set only while PatchInCapacity patches a reserved arena: newNode must not grow it

	// Ablation switches (see BuildOptions).
	disablePrefix    bool
	disableAnchoring bool
}

// Build constructs an ACT with granularity delta over sorted, disjoint
// (cell id, tagged entry) pairs. It panics if delta is not 1, 2 or 4, or if
// the input violates disjointness — these are programming errors, not data
// errors, because supercover.Cells guarantees the invariants.
func Build(kvs []cellindex.KeyEntry, delta int) *Tree {
	if delta != Delta1 && delta != Delta2 && delta != Delta4 {
		panic(fmt.Sprintf("act: unsupported delta %d", delta))
	}
	t := &Tree{
		delta:  delta,
		span:   uint(2 * delta),
		fanout: 1 << uint(2*delta),
	}
	t.build(kvs)
	return t
}

// build populates an initialized Tree shell: it sizes the arena with an
// exact node-count pre-pass — consecutive sorted keys share exactly the
// nodes above their longest common band, so the count is one linear scan —
// and then inserts every cell into the single allocation.
func (t *Tree) build(kvs []cellindex.KeyEntry) {
	for f := range t.faces {
		t.faces[f].root = -1
	}

	// Group input by face (input is sorted, so faces are contiguous).
	type faceGroup struct {
		face       int
		start, end int
		lay        faceLayout
	}
	var groups []faceGroup
	totalNodes := 0
	start := 0
	for start < len(kvs) {
		face := kvs[start].Key.Face()
		end := start
		for end < len(kvs) && kvs[end].Key.Face() == face {
			end++
		}
		lay := t.faceLayout(kvs[start:end])
		if t.fanout > 4 {
			// The pre-pass pays for itself through the avoided growth
			// copies, which scale with the node size; at fanout 4 (ACT1)
			// they are cheaper than the counting itself.
			totalNodes += t.countFaceNodes(kvs[start:end], lay.offset, lay.prefix+lay.rootSpan)
		}
		groups = append(groups, faceGroup{face, start, end, lay})
		start = end
	}
	if totalNodes > 0 {
		t.entries = make([]uint64, 0, totalNodes*t.fanout)
	}

	for _, g := range groups {
		ft := t.setupFace(g.face, g.lay)
		for _, kv := range kvs[g.start:g.end] {
			t.insert(ft, kv.Key, kv.Entry)
		}
	}
	t.numCells = len(kvs)
}

// extendedLevel returns the band boundary a cell of the given level is
// extended to: the smallest boundary >= level. Boundaries are the positive
// levels congruent to offset mod δ.
func (t *Tree) extendedLevel(level, offset int) int {
	gmin := offset
	if gmin == 0 {
		gmin = t.delta
	}
	if level <= gmin {
		return gmin
	}
	return level + t.modDelta(offset-level)
}

// modDelta returns x mod δ in [0, δ), also for negative x: δ is a power of
// two, so the residue is a mask of x's two's-complement bits.
func (t *Tree) modDelta(x int) int { return x & (t.delta - 1) }

// divDelta returns x / δ for x >= 0: a shift by log2 δ.
func (t *Tree) divDelta(x int) int { return x >> uint(bits.TrailingZeros(uint(t.delta))) }

// faceLayout is the derived geometry of one face tree: the band anchor, the
// skipped common prefix and the root band width.
type faceLayout struct {
	offset     int
	prefix     int
	prefixBits uint64
	rootSpan   int
	maxLevel   int
}

// faceLayout computes the layout for one face's sorted cells: deepest level
// (the band anchor), the common path prefix, and the shallowest extended
// level constraining the prefix.
func (t *Tree) faceLayout(kvs []cellindex.KeyEntry) faceLayout {
	var lay faceLayout
	if len(kvs) == 0 {
		return lay
	}
	maxLevel := 0
	common := cellid.MaxLevel
	first := kvs[0].Key.Path()
	for _, kv := range kvs {
		level := kv.Key.Level()
		if level > maxLevel {
			maxLevel = level
		}
		shared := bits.LeadingZeros64(first^kv.Key.Path()) / 2
		if shared < common {
			common = shared
		}
		if level < common {
			common = level
		}
	}
	offset := maxLevel % t.delta
	if t.disableAnchoring {
		offset = 0
	}
	minExt := maxIndexLevel + t.delta
	for _, kv := range kvs {
		if ext := t.extendedLevel(kv.Key.Level(), offset); ext < minExt {
			minExt = ext
		}
	}

	// The prefix must end on a band boundary (or be zero) and leave at
	// least one band below it for every cell.
	limit := common
	if m := minExt - t.delta; m < limit {
		limit = m
	}
	prefix := 0
	if gmin := t.extendedLevel(0, offset); limit >= gmin && !t.disablePrefix {
		prefix = limit - t.modDelta(limit-offset)
	}

	lay.offset = offset
	lay.prefix = prefix
	if prefix > 0 {
		lay.prefixBits = first >> (64 - uint(2*prefix))
	}
	// The root band runs from the prefix to the next boundary.
	lay.rootSpan = t.extendedLevel(prefix+1, offset) - prefix
	lay.maxLevel = maxLevel
	return lay
}

// setupFace installs a layout into the face and allocates its root node.
func (t *Tree) setupFace(face int, lay faceLayout) *faceTree {
	ft := &t.faces[face]
	ft.offset = lay.offset
	ft.prefixLevels = lay.prefix
	ft.prefixBits = lay.prefixBits
	ft.rootSpan = lay.rootSpan
	ft.firstShift = 64 - uint(2*(lay.prefix+lay.rootSpan))
	ft.firstMask = 1<<uint(2*ft.rootSpan) - 1
	ft.root = t.newNode()
	if lay.maxLevel > t.maxCellLevel {
		t.maxCellLevel = lay.maxLevel
	}
	return ft
}

// countFaceNodes returns the exact number of radix nodes inserting the
// face's sorted cells will allocate, without touching any memory. A cell
// extended to level e occupies the node chain starting at the prefix plus
// one node per band boundary below re (= prefix+rootSpan) and above e; two
// consecutive sorted keys share exactly the chain nodes above both their
// common path prefix and their shallower extension. Summing chain lengths
// and subtracting consecutive overlaps counts each node exactly once.
func (t *Tree) countFaceNodes(kvs []cellindex.KeyEntry, offset, re int) int {
	if len(kvs) == 0 {
		return 0
	}
	d := t.delta
	total := 0
	first := true
	var prevExt int
	var prevPath uint64
	for _, kv := range kvs {
		if kv.Entry.IsFalseHit() {
			continue // insert indexes nothing for sentinel entries
		}
		ext := t.extendedLevel(kv.Key.Level(), offset)
		path := kv.Key.Path()
		n := 1 + t.divDelta(ext-re)
		if first {
			total += n
			first = false
		} else {
			minE := ext
			if prevExt < minE {
				minE = prevExt
			}
			// Band starts strictly below the root that both keys visit and
			// agree on: s ∈ {re, re+d, …}, s < minE, s ≤ common path levels.
			l := minE - d
			if c := bits.LeadingZeros64(prevPath^path) / 2; c < l {
				l = c
			}
			shared := 1 // the root node
			if l >= re {
				shared += t.divDelta(l-re) + 1
			}
			total += n - shared
		}
		prevExt, prevPath = ext, path
	}
	if total < 1 {
		return 1 // the root node exists even if every entry is a sentinel
	}
	return total
}

// newNode appends a zeroed node to the arena and returns its index. Zero
// slots are the sentinel (false hit), so no initialization is needed.
func (t *Tree) newNode() int32 {
	if t.fixedArena && cap(t.entries)-len(t.entries) < t.fanout {
		panic(errArenaFull)
	}
	idx := int32(t.numNodes)
	t.numNodes++
	t.entries = append(t.entries, make([]uint64, t.fanout)...)
	return idx
}

// bitsAt extracts the 2*span path bits for the band covering levels
// (pos, pos+span].
func bitsAt(path uint64, pos, span int) uint64 {
	return (path >> (64 - uint(2*(pos+span)))) & (1<<uint(2*span) - 1)
}

// extensionSlots returns the slot range a cell occupies in its final band
// (pos, pos+span] after key extension: the cell fixes the top
// 2*(level-pos) bits of the slot index, the remaining low bits enumerate
// the replicas — slots base..base+count-1. Shared by insert (which writes
// the replicas) and clearRegion (which must clear exactly the same set).
func extensionSlots(path uint64, level, pos, span int) (base, count uint64) {
	validBits := uint(2 * (level - pos))
	freeBits := uint(2*span) - validBits
	if level > pos {
		base = (path >> (64 - uint(2*level))) & (1<<validBits - 1)
	}
	return base << freeBits, 1 << freeBits
}

// insert places one cell, applying key extension.
func (t *Tree) insert(ft *faceTree, key cellid.CellID, entry refs.Entry) {
	if entry.IsFalseHit() {
		return // nothing to index: absence already means false hit
	}
	path := key.Path()
	level := key.Level()
	ext := t.extendedLevel(level, ft.offset)

	cur := ft.root
	pos := ft.prefixLevels
	span := ft.rootSpan
	for pos+span < ext {
		slot := bitsAt(path, pos, span)
		idx := int(cur)*t.fanout + int(slot)
		e := t.entries[idx]
		var child int32
		switch {
		case e == 0:
			child = t.newNode()
			t.entries[idx] = uint64(child+1) << 2
		case e&3 == 0:
			child = int32(e>>2) - 1
		default:
			panic("act: value on the path of another cell — input not disjoint")
		}
		cur = child
		pos += span
		span = t.delta
	}

	// Final band (pos, pos+span] with pos+span == ext: write the cell's
	// key-extension replicas.
	base, count := extensionSlots(path, level, pos, span)
	nodeBase := int(cur) * t.fanout
	for i := uint64(0); i < count; i++ {
		idx := nodeBase + int(base+i)
		if t.entries[idx] != 0 {
			panic("act: slot already occupied — input not disjoint")
		}
		t.entries[idx] = uint64(entry)
		t.numExtended++
	}
}

// Find probes the trie with a leaf cell id (Listing 2 of the paper): select
// the face tree, check the common prefix, then walk the bands until a value
// or the sentinel is hit. Returns refs.FalseHit when no super-covering cell
// contains the leaf.
//
//act:hotpath
func (t *Tree) Find(leaf cellid.CellID) refs.Entry {
	ft := &t.faces[uint64(leaf)>>61]
	if ft.root < 0 {
		return refs.FalseHit
	}
	path := uint64(leaf) << 3
	if ft.prefixLevels > 0 {
		if path>>(64-uint(2*ft.prefixLevels)) != ft.prefixBits {
			return refs.FalseHit
		}
	}
	shift := ft.firstShift
	mask := ft.firstMask
	fullMask := uint64(t.fanout - 1)
	cur := int(ft.root)
	for {
		e := t.entries[cur*t.fanout+int((path>>shift)&mask)]
		if e&3 != 0 {
			return refs.Entry(e) // inlined ref(s) or lookup-table offset
		}
		if e == 0 {
			return refs.FalseHit
		}
		cur = int(e>>2) - 1
		shift -= t.span
		mask = fullMask
	}
}

// FindRange is the probe-with-hint entry point for batch joins: it returns
// Find(leaf) together with the inclusive leaf-id range [lo, hi] containing
// leaf over which that answer stays valid. The range is the extent of the
// cell whose slot terminated the walk — a value slot (the indexed
// super-covering cell after key extension) or a sentinel slot (a false-hit
// gap at that band) — widened one level, to the slot cell's parent, when
// the slot's aligned quad of four sibling slots all hold the same entry
// (the key-extension replicas of one coarser cell, or equal neighbours).
// The range is therefore at most one quad wider than the slot and may be
// narrower than an indexed cell extended by more than one level. Callers
// probing a cell-id-sorted point stream can skip the tree walk entirely
// while successive leaves stay inside [lo, hi].
//
//act:hotpath
func (t *Tree) FindRange(leaf cellid.CellID) (refs.Entry, cellid.CellID, cellid.CellID) {
	face := int(uint64(leaf) >> 61)
	ft := &t.faces[face]
	if ft.root < 0 {
		fc := cellid.FaceCell(face)
		return refs.FalseHit, fc.RangeMin(), fc.RangeMax()
	}
	path := uint64(leaf) << 3
	if ft.prefixLevels > 0 {
		if path>>(64-uint(2*ft.prefixLevels)) != ft.prefixBits {
			// Every leaf sharing this level-prefixLevels ancestor mismatches
			// the stored prefix the same way.
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
		idx := cur*t.fanout + int((path>>shift)&mask)
		e := t.entries[idx]
		if e&3 != 0 || e == 0 {
			// m masks the leaf-id bits below the slot cell's level: the
			// cell is [leaf&^m | 1, leaf|m]. The aligned quad holding idx
			// is the four children of the slot cell's parent, and it
			// shares idx's cache line (node bases are multiples of the
			// fanout). When all four carry e, the answer holds over the
			// parent, whose mask is two bits wider. Selecting the mask
			// rather than the level keeps the quad loads one conditional
			// move away from lo and hi, which the caller's run scan waits on.
			m := uint64(1)<<uint(2*(cellid.MaxLevel-level)+1) - 1
			b := idx &^ 3
			q := t.entries[b : b+4 : b+4]
			if (q[0]^e)|(q[1]^e)|(q[2]^e)|(q[3]^e) == 0 {
				m = m<<2 | 3
			}
			return refs.Entry(e), cellid.CellID(uint64(leaf)&^m | 1), cellid.CellID(uint64(leaf) | m)
		}
		cur = int(e>>2) - 1
		shift -= t.span
		mask = fullMask
		level += t.delta
	}
}

// FindDepth is Find with instrumentation: it also returns the number of
// node accesses performed (the tree traversal depth of Table 4).
func (t *Tree) FindDepth(leaf cellid.CellID) (refs.Entry, int) {
	ft := &t.faces[uint64(leaf)>>61]
	if ft.root < 0 {
		return refs.FalseHit, 0
	}
	path := uint64(leaf) << 3
	if ft.prefixLevels > 0 {
		if path>>(64-uint(2*ft.prefixLevels)) != ft.prefixBits {
			return refs.FalseHit, 0
		}
	}
	shift := ft.firstShift
	mask := ft.firstMask
	fullMask := uint64(t.fanout - 1)
	cur := int(ft.root)
	depth := 0
	for {
		depth++
		e := t.entries[cur*t.fanout+int((path>>shift)&mask)]
		if e&3 != 0 {
			return refs.Entry(e), depth
		}
		if e == 0 {
			return refs.FalseHit, depth
		}
		cur = int(e>>2) - 1
		shift -= t.span
		mask = fullMask
	}
}

// Delta returns the granularity (quadtree levels per radix level).
func (t *Tree) Delta() int { return t.delta }

// Fanout returns the node fanout (4^δ).
func (t *Tree) Fanout() int { return t.fanout }

// NumNodes returns the number of live radix nodes: nodes reachable from the
// face roots. Nodes orphaned by Patch (superseded copy-on-write originals
// and unlinked subtrees) still occupy the shared arena — see ArenaNodes and
// OrphanNodes — but are excluded here, so the count describes the tree a
// probe can traverse.
func (t *Tree) NumNodes() int { return t.numNodes - t.garbage/t.fanout }

// ArenaNodes returns the total number of nodes allocated in the shared
// arena, live and orphaned alike. For a freshly built tree it equals
// NumNodes; after patches it grows past it, and SizeBytes tracks it.
func (t *Tree) ArenaNodes() int { return t.numNodes }

// OrphanNodes returns the number of arena nodes orphaned by Patch: allocated
// but unreachable from this tree's face roots (earlier snapshots in the
// patch chain may still reach some of them). The owner compacts with a full
// Build once GarbageRatio crosses its threshold.
func (t *Tree) OrphanNodes() int { return t.garbage / t.fanout }

// NumCells returns the number of indexed super-covering cells.
func (t *Tree) NumCells() int { return t.numCells }

// NumValueSlots returns the number of occupied value slots after key
// extension.
func (t *Tree) NumValueSlots() int { return t.numExtended }

// MaxCellLevel returns the deepest indexed cell level (0 for an empty
// tree). Probes never distinguish leaf ids below this level, so batch joins
// sort their probe streams only down to it.
func (t *Tree) MaxCellLevel() int { return t.maxCellLevel }

// ArenaCapNodes returns how many nodes the arena's backing array holds,
// spare capacity included. It changes only when the array is replaced: by
// a growth copy in Patch, or by a new Build.
func (t *Tree) ArenaCapNodes() int { return cap(t.entries) / t.fanout }

// SizeBytes returns the arena footprint (8 bytes per slot, as in the
// paper's size accounting). After Patch it includes orphaned nodes; see
// GarbageRatio.
func (t *Tree) SizeBytes() int { return 8 * len(t.entries) }

// GarbageSlots returns the number of arena slots belonging to nodes orphaned
// by Patch (allocated, unreachable from any face root).
func (t *Tree) GarbageSlots() int { return t.garbage }

// GarbageRatio returns the orphaned fraction of the arena. The owner
// triggers a compacting full Build once it crosses its threshold.
func (t *Tree) GarbageRatio() float64 {
	if len(t.entries) == 0 {
		return 0
	}
	return float64(t.garbage) / float64(len(t.entries))
}

var (
	_ cellindex.Index      = (*Tree)(nil)
	_ cellindex.RangeIndex = (*Tree)(nil)
)
