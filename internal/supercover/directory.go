package supercover

import (
	"fmt"
	"math/bits"
	"slices"

	"actjoin/internal/cellid"
	"actjoin/internal/refs"
)

// directory is the per-polygon footprint index of a SuperCovering: for every
// polygon id it records the exact set of cells whose reference list mentions
// the polygon. It is the reverse of the cell→references mapping the quadtree
// stores, and it is what makes every per-polygon operation O(footprint):
// RemovePolygon visits only the recorded cells instead of walking all six
// face trees, and ReferencedPolygons is a key enumeration instead of a full
// traversal.
//
// Each polygon's cells are stored as a sorted, duplicate-free slice plus a
// small unsorted staging tail, rather than a hash set: a footprint of n
// cells costs n 8-byte ids and two slice headers (instead of a bucketed map
// of empty-struct entries), which shrinks writer RSS at large coverings, and
// the removal path gets an already-sorted descent plan without allocating or
// sorting a snapshot. The staging tail is what keeps maintenance off the
// memmove cliff: per-polygon coverings emit cells in ascending order (the
// O(1) append fast path), but interior coverings and precision refinement
// interleave into the middle of the sorted range — staging those and merging
// once the tail reaches a fraction of the footprint makes the memmove
// amortized O(1) per insert instead of O(footprint).
//
// The directory is writer-side state with the same synchronization contract
// as the quadtree itself. Runtime mutations maintain it inline, for the
// polygon ids a cell gains or loses — Insert (including conflict-resolution
// difference cells and the distribute path), RefineCells (which leaves the
// entries of a revisited cell's unchanged polygon ids alone), training
// splits, removal and transaction rollback (ResetRegion) — and it is rebuilt
// for free when a covering is reconstructed by re-inserting frozen cells
// (deserialization, the full-rebuild restore path). Bulk refinement
// (RefineToPrecision) rewrites the whole tree and has no reader until it
// ends, so it skips the per-split upkeep and rebuilds the directory once
// from the finished tree (rebuildDirectory). Invariant: cell c is in
// cells[p] if and only if the tree holds a cell c whose reference list
// contains polygon p; ValidateDirectory checks it in tests.
type directory struct {
	cells map[uint32]*polyFootprint

	// onWrite, when set, sees every addOne and removeOne call before it
	// runs: a test hook for counting footprint writes.
	onWrite func(p uint32, id cellid.CellID, add bool)
}

// polyFootprint is one polygon's recorded cell set: a sorted unique base
// slice plus two small sorted staging tails — cells added since the last
// merge (disjoint from the base) and cells removed since then (all present
// in the base). The footprint is base ∪ added ∖ removed. Every membership
// operation is a binary search; mutations memmove at most a staging tail
// (a few hundred bytes), and the O(footprint) merge runs once per ~√n
// mutations, so maintenance never pays a footprint-sized memmove per cell
// the way a single flat slice would under the interleaved insert/delete
// pattern precision refinement produces.
type polyFootprint struct {
	sorted  []cellid.CellID // ascending, unique
	added   []cellid.CellID // ascending; disjoint from sorted and removed
	removed []cellid.CellID // ascending; every entry present in sorted
}

// stagingThreshold returns how large a staging tail may grow before merging:
// ~√n balances the per-merge O(n) pass against tail memmoves.
func (f *polyFootprint) stagingThreshold() int {
	t := 1 << (bits.Len(uint(len(f.sorted))) / 2)
	if t < 32 {
		return 32
	}
	return t
}

// size returns the footprint's cell count.
func (f *polyFootprint) size() int { return len(f.sorted) + len(f.added) - len(f.removed) }

// find reports id's position in s and whether it is present.
func find(s []cellid.CellID, id cellid.CellID) (int, bool) {
	return slices.BinarySearch(s, id)
}

// insertAt places id into the sorted slice s at position i.
func insertAt(s []cellid.CellID, i int, id cellid.CellID) []cellid.CellID {
	s = append(s, 0)
	copy(s[i+1:], s[i:])
	s[i] = id
	return s
}

// add records id unless it is already in the footprint: membership checking
// and insertion share their binary searches, since each part needs at most
// one probe either way.
func (f *polyFootprint) add(id cellid.CellID) {
	if i, ok := find(f.removed, id); ok {
		// Un-remove: the id is back, and it is still in the base slice.
		f.removed = append(f.removed[:i], f.removed[i+1:]...)
		return
	}
	if n := len(f.sorted); len(f.added) == 0 && (n == 0 || f.sorted[n-1] < id) {
		f.sorted = append(f.sorted, id) // ascending emit order: plain append
		return
	}
	if _, ok := find(f.sorted, id); ok {
		return // already recorded (duplicate reference)
	}
	i, ok := find(f.added, id)
	if ok {
		return // already staged
	}
	f.added = insertAt(f.added, i, id)
	if len(f.added) >= f.stagingThreshold() {
		f.merge()
	}
}

// remove drops id from the footprint, reporting whether it was recorded.
func (f *polyFootprint) remove(id cellid.CellID) bool {
	if i, ok := find(f.added, id); ok {
		f.added = append(f.added[:i], f.added[i+1:]...)
		return true
	}
	if _, ok := find(f.sorted, id); !ok {
		return false
	}
	i, ok := find(f.removed, id)
	if ok {
		return false // already recorded as removed
	}
	f.removed = insertAt(f.removed, i, id)
	if len(f.removed) >= f.stagingThreshold() {
		f.merge()
	}
	return true
}

// merge folds both staging tails into the base slice: one in-place filter
// pass applies the removals, one backward merge pass weaves in the
// additions (over the existing allocation plus append growth room).
func (f *polyFootprint) merge() {
	if len(f.removed) > 0 {
		w, r := 0, 0
		for _, c := range f.sorted {
			if r < len(f.removed) && f.removed[r] == c {
				r++
				continue
			}
			f.sorted[w] = c
			w++
		}
		f.sorted = f.sorted[:w]
		f.removed = f.removed[:0]
	}
	if len(f.added) > 0 {
		a, b := len(f.sorted), len(f.added)
		f.sorted = append(f.sorted, f.added...)
		for w := a + b - 1; b > 0; w-- {
			if a > 0 && f.sorted[a-1] > f.added[b-1] {
				a--
				f.sorted[w] = f.sorted[a]
			} else {
				b--
				f.sorted[w] = f.added[b]
			}
		}
		f.added = f.added[:0]
	}
}

// newDirectory returns an empty directory.
func newDirectory() directory {
	return directory{cells: make(map[uint32]*polyFootprint)}
}

// rebuildDirectory returns the directory of the tree under roots, built in
// one ascending walk after a counting pass: the counts size every
// footprint's slice exactly, and the walk visits cells in ascending id
// order (faces in order, children in Hilbert order), so each footprint
// fills by plain appends and its staging tails stay empty.
func rebuildDirectory(roots *[cellid.NumFaces]*node) directory {
	var b dirBuilder
	for f := range roots {
		if roots[f] != nil {
			b.count(roots[f])
		}
	}
	live := 0
	b.fps = make([]*polyFootprint, len(b.counts))
	for p, n := range b.counts {
		if n > 0 {
			b.fps[p] = &polyFootprint{sorted: make([]cellid.CellID, 0, n)}
			live++
		}
	}
	for f := range roots {
		if roots[f] != nil {
			b.fill(roots[f], cellid.FaceCell(f))
		}
	}
	d := directory{cells: make(map[uint32]*polyFootprint, live)}
	for p, f := range b.fps {
		if f != nil {
			d.cells[uint32(p)] = f
		}
	}
	return d
}

// dirBuilder holds rebuildDirectory's per-polygon state, indexed by polygon
// id: the reference counts, then the footprints being filled.
type dirBuilder struct {
	counts []int32
	fps    []*polyFootprint
}

// count tallies, per polygon, the references of the cells under n.
func (b *dirBuilder) count(n *node) {
	if n.hasCell {
		for _, r := range n.refs {
			p := int(r.PolygonID())
			if p >= len(b.counts) {
				b.counts = append(b.counts, make([]int32, p+1-len(b.counts))...)
			}
			b.counts[p]++
		}
		return
	}
	for i := 0; i < 4; i++ {
		if n.children[i] != nil {
			b.count(n.children[i])
		}
	}
}

// fill appends every cell under n (cell id) to the footprints of the
// polygons it references, in ascending id order.
func (b *dirBuilder) fill(n *node, id cellid.CellID) {
	if n.hasCell {
		for _, r := range n.refs {
			f := b.fps[r.PolygonID()]
			if k := len(f.sorted); k > 0 && f.sorted[k-1] == id {
				continue // a second reference to the same polygon
			}
			f.sorted = append(f.sorted, id)
		}
		return
	}
	for i := 0; i < 4; i++ {
		if n.children[i] != nil {
			b.fill(n.children[i], id.Child(i))
		}
	}
}

// addRefs records that cell id references every polygon in rs. rs need not
// be normalized: duplicate polygon ids collapse in the set. A nil directory
// records nothing (a refinement pass whose caller rebuilds it afterwards).
func (d *directory) addRefs(id cellid.CellID, rs []refs.Ref) {
	if d == nil {
		return
	}
	for _, r := range rs {
		d.addOne(id, r.PolygonID())
	}
}

// addOne records cell id in polygon p's footprint.
func (d *directory) addOne(id cellid.CellID, p uint32) {
	if d.onWrite != nil {
		d.onWrite(p, id, true)
	}
	f := d.cells[p]
	if f == nil {
		f = &polyFootprint{}
		d.cells[p] = f
	}
	f.add(id)
}

// updateRefs moves cell id's entries from the polygon ids of from to those
// of to, touching only the ids that leave or arrive: a polygon id on both
// lists is already recorded, whatever its interior flag. Neither list need
// be normalized: writing a repeated id again is a no-op. Reference lists
// hold a handful of refs, so the membership tests are linear scans. No-op
// on a nil directory.
func (d *directory) updateRefs(id cellid.CellID, from, to []refs.Ref) {
	if d == nil {
		return
	}
	for _, r := range from {
		if !hasPolygon(to, r.PolygonID()) {
			d.removeOne(id, r.PolygonID())
		}
	}
	for _, r := range to {
		if !hasPolygon(from, r.PolygonID()) {
			d.addOne(id, r.PolygonID())
		}
	}
}

// hasPolygon reports whether rs holds a reference to polygon p.
func hasPolygon(rs []refs.Ref, p uint32) bool {
	for _, r := range rs {
		if r.PolygonID() == p {
			return true
		}
	}
	return false
}

// removeRefs drops cell id from every polygon in rs. Empty per-polygon
// footprints are deleted so ReferencedPolygons never reports a polygon
// without cells. Like addRefs, it is a no-op on a nil directory.
func (d *directory) removeRefs(id cellid.CellID, rs []refs.Ref) {
	if d == nil {
		return
	}
	for _, r := range rs {
		d.removeOne(id, r.PolygonID())
	}
}

// removeOne drops cell id from polygon p's footprint.
func (d *directory) removeOne(id cellid.CellID, p uint32) {
	if d.onWrite != nil {
		d.onWrite(p, id, false)
	}
	f := d.cells[p]
	if f == nil {
		return
	}
	if f.remove(id) && f.size() == 0 {
		delete(d.cells, p)
	}
}

// take detaches and returns polygon p's cell slice, sorted, leaving the
// polygon unrecorded. RemovePolygon uses it as an allocation-free footprint
// snapshot: the caller owns the slice, and the per-cell removeOne calls the
// removal makes for p become no-ops against the already-detached entry.
func (d *directory) take(p uint32) []cellid.CellID {
	f := d.cells[p]
	if f == nil {
		return nil
	}
	delete(d.cells, p)
	f.merge()
	return f.sorted
}

// Footprint returns the number of cells currently referencing the polygon —
// the cost driver of RemovePolygon and of the incremental publish that
// follows it.
func (sc *SuperCovering) Footprint(id uint32) int {
	if f := sc.dir.cells[id]; f != nil {
		return f.size()
	}
	return 0
}

// SetWalkRemoval selects RemovePolygon's implementation: false (the default)
// descends only the cells recorded in the per-polygon directory; true forces
// the pre-directory full-quadtree walk. The walk exists for benchmarking the
// two paths against each other and as the reference implementation the
// differential tests compare against; results and dirty marks are identical
// either way, and the directory stays maintained in both modes.
func (sc *SuperCovering) SetWalkRemoval(walk bool) { sc.walkRemoval = walk }

// ValidateDirectory recomputes the polygon→cells mapping from the quadtree
// and compares it against the maintained directory, returning an error on
// the first divergence — including any violation of the sorted-plus-staged
// slice representation (unsorted or duplicated entries). Testing hook: every
// mutation path is required to keep the two in lockstep.
func (sc *SuperCovering) ValidateDirectory() error {
	want := make(map[uint32]map[cellid.CellID]struct{})
	var walk func(n *node, id cellid.CellID)
	walk = func(n *node, id cellid.CellID) {
		if n.hasCell {
			for _, r := range n.refs {
				p := r.PolygonID()
				if want[p] == nil {
					want[p] = make(map[cellid.CellID]struct{})
				}
				want[p][id] = struct{}{}
			}
		}
		for i := 0; i < 4; i++ {
			if n.children[i] != nil {
				walk(n.children[i], id.Child(i))
			}
		}
	}
	for f := range sc.roots {
		if sc.roots[f] != nil {
			walk(sc.roots[f], cellid.FaceCell(f))
		}
	}

	if len(want) != len(sc.dir.cells) {
		return fmt.Errorf("supercover: directory tracks %d polygons, tree references %d", len(sc.dir.cells), len(want))
	}
	for p, cells := range want {
		f := sc.dir.cells[p]
		if f == nil {
			return fmt.Errorf("supercover: polygon %d referenced by the tree but missing from the directory", p)
		}
		if f.size() != len(cells) {
			return fmt.Errorf("supercover: polygon %d: directory holds %d cells, tree holds %d", p, f.size(), len(cells))
		}
		for _, part := range [][]cellid.CellID{f.sorted, f.added, f.removed} {
			for i := 1; i < len(part); i++ {
				if part[i-1] >= part[i] {
					return fmt.Errorf("supercover: polygon %d: directory part out of order at %d (%v after %v)", p, i, part[i], part[i-1])
				}
			}
		}
		for _, c := range f.removed {
			if _, ok := find(f.sorted, c); !ok {
				return fmt.Errorf("supercover: polygon %d: removed cell %v not in the base slice", p, c)
			}
		}
		seen := make(map[cellid.CellID]struct{}, f.size())
		check := func(c cellid.CellID) error {
			if _, dup := seen[c]; dup {
				return fmt.Errorf("supercover: polygon %d: cell %v recorded twice", p, c)
			}
			seen[c] = struct{}{}
			if _, ok := cells[c]; !ok {
				return fmt.Errorf("supercover: polygon %d: cell %v in the directory but not referenced by the tree", p, c)
			}
			return nil
		}
		for _, c := range f.sorted {
			if _, gone := find(f.removed, c); gone {
				continue
			}
			if err := check(c); err != nil {
				return err
			}
		}
		for _, c := range f.added {
			if err := check(c); err != nil {
				return err
			}
		}
	}
	return nil
}
