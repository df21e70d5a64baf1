package actjoin

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"actjoin/internal/act"
	"actjoin/internal/cellid"
	"actjoin/internal/cellindex"
	"actjoin/internal/fault"
	"actjoin/internal/geom"
	"actjoin/internal/refs"
	"actjoin/internal/supercover"
)

// shardRouter maps cell ids to shards. bounds are the sorted, strictly
// increasing leaf-aligned split points chosen at build time: shard i owns
// the leaf ids in [bounds[i-1], bounds[i]) with virtual bounds at the ends
// of the id space, so len(bounds)+1 shards partition the space. The router
// is immutable; every reader and writer shares it.
type shardRouter struct {
	bounds []cellid.CellID
}

// numShards returns the number of ranges the router splits the id space
// into.
func (r shardRouter) numShards() int { return len(r.bounds) + 1 }

// shardOfLeaf returns the shard owning a leaf cell id.
func (r shardRouter) shardOfLeaf(leaf cellid.CellID) int {
	return sort.Search(len(r.bounds), func(i int) bool { return r.bounds[i] > leaf })
}

// route buckets covering cells by owning shard, decomposing any cell that
// spans a shard boundary into its children until each piece is owned by
// one shard. Decomposition recurses at most to the leaf level, and a leaf
// (RangeMin == RangeMax) can never span. Pieces are emitted in child order,
// so per-shard insertion order — and therefore the shard's covering — is
// deterministic. With one shard the split is the identity and cells come
// back as the one bucket, unchanged.
func (r shardRouter) route(cells []cellid.CellID) [][]cellid.CellID {
	if len(r.bounds) == 0 {
		return [][]cellid.CellID{cells}
	}
	out := make([][]cellid.CellID, r.numShards())
	for _, c := range cells {
		r.emit(c, out)
	}
	return out
}

func (r shardRouter) emit(c cellid.CellID, out [][]cellid.CellID) {
	si := r.shardOfLeaf(c.RangeMin())
	if si == r.shardOfLeaf(c.RangeMax()) {
		out[si] = append(out[si], c)
		return
	}
	for _, ch := range c.Children() {
		r.emit(ch, out)
	}
}

// buildShardRouter picks the split points from the initial polygon set:
// quantiles of the covering cells' leaf positions, snapped two levels above
// the coarsest covering cell so most cells land inside one shard instead of
// straddling a split. Snapping (and empty ranges) may merge adjacent
// quantiles — the effective shard count is then lower than requested, never
// higher.
func buildShardRouter(covs, ints [][]cellid.CellID, shards int) shardRouter {
	if shards <= 1 {
		return shardRouter{}
	}
	var leafs []cellid.CellID
	minLevel := cellid.MaxLevel
	collect := func(lists [][]cellid.CellID) {
		for _, cs := range lists {
			for _, c := range cs {
				leafs = append(leafs, c.RangeMin())
				if l := c.Level(); l < minLevel {
					minLevel = l
				}
			}
		}
	}
	collect(covs)
	collect(ints)
	if len(leafs) == 0 {
		return shardRouter{}
	}
	cellid.SortCellIDs(leafs)
	snapLevel := minLevel - 2
	if snapLevel < 1 {
		snapLevel = 1
	}
	var bounds []cellid.CellID
	for k := 1; k < shards; k++ {
		b := leafs[k*len(leafs)/shards].Parent(snapLevel).RangeMin()
		if n := len(bounds); (n == 0 || b > bounds[n-1]) && b > leafs[0] {
			bounds = append(bounds, b)
		}
	}
	return shardRouter{bounds: bounds}
}

// shard is the engine behind one contiguous cell-id range of an Index: its
// own super covering, encoder, frozen part, writer mutex and background
// compactor. It mutates, publishes, compacts, degrades and quarantines
// independently of every other shard; the Index routes mutations to it as
// staged op lists (stageShardOp) and composes its parts into Snapshots.
// With one shard it is the paper's whole index.
//
// Concurrency contract: staging and freezing serialize on mu and rebuild
// the frozen structures off to the side; the new part reaches readers
// through the Index's composed view (publishView), never by writing
// anything a published part shares. The only shard path that reaches back
// into its Index is the compactor's landing, which takes the commit lock
// before mu, as every commit does.
type shard struct {
	noCopy noCopy

	// ix and slot place the shard in its Index: slot is its position in
	// the composed view's parts, and the compactor's landing takes ix's
	// commit lock and publishes into ix's view. Immutable after
	// construction.
	ix   *Index
	slot int

	// mu serializes writers; it is never held on any query path.
	mu sync.Mutex //act:lock mu

	// cur is the shard's latest frozen part: the base the next publish
	// patches and, outside a multi-shard commit in flight, the part the
	// composed view holds in slot.
	cur *part //act:guarded mu

	// Writer-side state. polys is copy-on-write: published snapshots share
	// the slice, so the first mutation after a publish replaces it instead
	// of editing it in place (polysShared tracks whether the current slice
	// is aliased by a snapshot).
	sc          *supercover.SuperCovering //act:guarded mu
	polys       []*geom.Polygon           //act:guarded mu
	polysShared bool                      //act:guarded mu

	// enc carries the shared lookup table across incremental publishes
	// (garbage-tracked, compacted on full rebuilds and replaced wholesale
	// when a background compaction lands); kvScratch recycles the
	// per-publish dirty-region encoding buffer. patched/full count the
	// publishes each path served (diagnostics, read under mu).
	enc       *cellindex.Encoder   //act:guarded mu
	kvScratch []cellindex.KeyEntry //act:guarded mu
	patched   int                  //act:guarded mu
	full      int                  //act:guarded mu

	// compacting is the in-flight background compaction, nil when none (see
	// compaction.go). The counters track cycle starts and landings. The
	// compactor goroutine takes mu to land its result.
	compacting         *compaction //act:guarded mu
	compactionsStarted int         //act:guarded mu
	compactionsLanded  int         //act:guarded mu

	// Failure-domain state (see compaction.go for the containment design).
	// closed marks a Close()d index: mutations fail with ErrClosed, no new
	// compactions start. fullNext forces the next publish down the full
	// freeze after a failed publish left the encoder's table torn — the
	// full path rebuilds it to consistency from scratch. The counters feed
	// PublishStats.
	closed          bool //act:guarded mu
	fullNext        bool //act:guarded mu
	publishPanics   int  //act:guarded mu
	reconcileAborts int  //act:guarded mu
	replayPoisoned  int  //act:guarded mu

	// Compactor failure bookkeeping is atomic, not mu-guarded, on purpose:
	// the goroutine records failures while a writer may be blocked on the
	// build (the hard-cap wait on c.done) holding mu, so the failure path
	// must stay lock-free (see noteCompactorFailure). compactorWG tracks
	// the goroutine itself for Close.
	compactionsFailed     atomic.Int64               //act:atomic
	consecCompactFailures atomic.Int64               //act:atomic
	quarantined           atomic.Pointer[quarantine] //act:atomic
	compactorWG           sync.WaitGroup

	// Test hooks (same-package tests only): holdCompaction, when non-nil,
	// parks every finished compaction until the channel is closed, so tests
	// can deterministically observe the pending-ready state; failPatches
	// forces the next n patch attempts to abort after staging, exercising
	// the encoder rollback path; compactRetryBase (0 = default) shortens
	// the compactor's retry backoff so failure tests run fast.
	holdCompaction   chan struct{} //act:guarded mu
	failPatches      int           //act:guarded mu
	compactRetryBase time.Duration //act:guarded mu

	opt            options // immutable after construction
	precisionLevel int     // immutable after construction
}

// noCopy triggers go vet's copylocks analyzer on by-value copies of the
// struct embedding it. It has no runtime effect.
type noCopy struct{}

func (*noCopy) Lock()   {}
func (*noCopy) Unlock() {}

// Publish thresholds: a patch is only attempted while the mutation's dirty
// footprint stays a small fraction of the index and while the garbage that
// patching accumulates (orphaned trie nodes, tombstoned lookup-table
// records) stays below its compaction triggers. Crossing a garbage trigger
// starts a background compaction (the default) or falls back to an inline
// rebuild (when background compaction is off or quarantined); while a
// compaction is in flight the writer keeps patching up to the hard caps in compaction.go.
const (
	publishMaxDirtyFraction = 0.25 // dirty cells vs previous snapshot cells
	arenaMaxGarbageFraction = 0.25 // orphaned arena slots before compaction
	tableMaxGarbageFraction = 0.50 // tombstoned table words before compaction
)

// publish freezes the writer-side state into the shard's next part, cur;
// the caller publishes it (publishView, or the multi-shard commit's single
// store). //act:requires states the calling contract (constructors owning a
// fresh, unshared shard are covered by //act:exclusive).
//
// In steady state the freeze is incremental: the covering reports the dirty
// subtree roots of the staged mutations, and the new snapshot is assembled
// by patching the previous one — clean cell runs are spliced by reference,
// only dirty regions are re-emitted and re-encoded, and the trie arena is
// copied flat and rebuilt only under the dirty roots. The full rebuild
// remains the fallback for bulk mutations (including the first publish) and
// for whatever the incremental paths — patching and background compaction —
// cannot absorb.
//
// Failure domain: both paths run under panic guards. A panic in the
// incremental machinery falls back to the full freeze; a panic in the full
// freeze itself rewinds the writer to the published snapshot (discarding
// the staged mutations), replaces the possibly-torn encoder, and returns
// the error — cur is never replaced by partial state, and the writer stays
// usable.
//
//act:requires mu
func (sh *shard) publish() error {
	if sh.enc == nil {
		sh.enc = cellindex.NewEncoder()
	}
	prev := sh.cur
	roots, all := sh.sc.TakeDirty()
	if c := sh.compacting; c != nil {
		// Whatever this publish changes must be re-applied onto the fresh
		// base before the in-flight compaction may land.
		c.addReplay(roots, all)
	}
	var s *part
	if prev != nil && !all && !sh.opt.fullPublish && !sh.fullNext {
		s = sh.publishIncrementalGuarded(prev, roots)
	}
	if s == nil {
		sh.abandonCompactionLocked()
		var err error
		if s, err = sh.publishFullGuarded(); err != nil {
			sh.recoverFailedPublish(prev, roots, all)
			return err
		}
		sh.full++
		sh.fullNext = false
	} else {
		sh.patched++
	}
	sh.polysShared = true // the snapshot aliases sh.polys from here on
	sh.cur = s
	return nil
}

// published returns the shard's part in the composed view. It takes no
// lock: the compactor reads it to see how far the writer got.
func (sh *shard) published() *part { return sh.ix.view.Load().parts[sh.slot] }

// publishView swaps cur into the shard's slot of the composed view. The
// caller holds the commit lock shared as well as mu: single-shard commits
// and landings of different shards race only on the pointer, so the swap
// retries until it replaces the view it copied, and a multi-shard commit,
// which holds the commit lock exclusively, never has one in flight.
//
//act:requires mu
//act:publisher
func (sh *shard) publishView() {
	for {
		old := sh.ix.view.Load()
		parts := slices.Clone(old.parts)
		parts[sh.slot] = sh.cur
		if sh.ix.view.CompareAndSwap(old, &Snapshot{parts: parts, router: old.router}) {
			return
		}
	}
}

// publishIncrementalGuarded runs the incremental publish under a panic
// guard: a panic anywhere in the patch machinery — injected or real — is
// recovered and reported as "no incremental result", which sends the caller
// down the full-freeze path. No explicit journal rollback happens here: the
// encoder's accounting may be torn mid-patch, but the full freeze's
// EncodeFrozen resets the encoder (table, refcounts and journal) wholesale
// before reusing it, and a failed full freeze replaces the encoder
// entirely. The arena writes of the aborted patch are appends past every
// published tree's length, so concurrent readers never see them.
//
//act:requires mu
func (sh *shard) publishIncrementalGuarded(prev *part, roots []cellid.CellID) (s *part) {
	defer func() {
		if r := recover(); r != nil {
			sh.publishPanics++
			s = nil
		}
	}()
	return sh.publishIncremental(prev, roots)
}

// publishFullGuarded runs the inline full freeze under a panic guard,
// converting a recovered panic into an error for the caller to surface.
// Nothing published is touched before the guarded section completes: the
// part is assembled from fresh buffers and only installed by publish()
// after a nil error.
//
//act:requires mu
//act:seam
func (sh *shard) publishFullGuarded() (s *part, err error) {
	defer func() {
		if r := recover(); r != nil {
			sh.publishPanics++
			s, err = nil, fmt.Errorf("actjoin: publish failed: %v", r)
		}
	}()
	fault.MustHit(fault.FullFreeze)
	// The snapshot takes ownership of the frozen cells (via the rope),
	// so the full path allocates a fresh, exactly-sized buffer; only the
	// patched path amortizes freeze allocations (dirty-sized buffers,
	// clean runs spliced by reference). EncodeFrozen, not EncodeAll: the
	// freeze's reference lists go straight into the new snapshot, and
	// EncodeAll would re-sort them in place — harmless today only because
	// they are not published yet, but a write through frozen state all the
	// same.
	cells := sh.sc.Cells()
	kvs := sh.enc.EncodeFrozen(cells)
	return &part{
		polys:          sh.polys,
		cells:          ropeFromCells(cells),
		tree:           act.Build(kvs, sh.opt.delta),
		table:          sh.enc.Table().Freeze(),
		opt:            sh.opt,
		precisionLevel: sh.precisionLevel,
	}, nil
}

// recoverFailedPublish rewinds the writer after a publish that produced no
// part on any path. cur was never replaced, so readers saw nothing; the
// writer-side covering is reset to match it using the dirty roots captured
// before the attempt (the marks themselves were already consumed by
// TakeDirty). The encoder's table may be torn mid-encode, so it is
// replaced, and fullNext routes the next publish through the full freeze,
// which rebuilds consistent encoder state from scratch.
//
//act:requires mu
func (sh *shard) recoverFailedPublish(prev *part, roots []cellid.CellID, all bool) {
	sh.enc = cellindex.NewEncoder()
	sh.fullNext = true
	if prev == nil {
		return // first publish: the constructor surfaces the error, the index is never handed out
	}
	sh.resetToSnapshot(prev, roots, all)
}

// publishIncremental serves one publish without a full rebuild, choosing
// among patching prev, starting a background compaction, and landing an
// in-flight one. It returns nil only when every incremental avenue is
// exhausted and the caller must rebuild inline.
//
//act:requires mu
func (sh *shard) publishIncremental(prev *part, roots []cellid.CellID) *part {
	if len(roots) == 0 {
		// Nothing structural changed (e.g. a transaction that only touched
		// tombstones, or a no-op Train): reuse the frozen state wholesale,
		// publishing only the new polygon slice.
		return sh.patchSnapshot(prev, sh.enc, nil, 0)
	}
	c := sh.compacting
	arenaCap, tableCap := arenaMaxGarbageFraction, tableMaxGarbageFraction
	if c != nil {
		// A compaction is already rebuilding: keep patching past the soft
		// thresholds, bounded by the hard caps.
		arenaCap, tableCap = arenaHardGarbageFraction, tableHardGarbageFraction
	}
	if prev.tree.GarbageRatio() > arenaCap || sh.enc.GarbageRatio() > tableCap {
		switch {
		case c != nil && c.replayAll:
			// The in-flight compaction is already poisoned: waiting for its
			// build would buy nothing (reconcile must fail). Abandon it and
			// rebuild inline.
			return nil
		case c != nil:
			// Hard cap: patching may not outrun the compactor any further.
			// Its build is already under way and needs no lock, so waiting
			// for it and landing it here is bounded by the build's remaining
			// time — never worse than the inline rebuild it replaces. (The
			// wait holds mu, which is why the compactor's failure path is
			// lock-free: done closes on every outcome, including quarantine,
			// and a nil result below falls through to the inline rebuild.)
			<-c.done
			return sh.reconcileLocked(c)
		case sh.bgCompactionOffLocked():
			return nil // compact inline via the full rebuild
		default:
			// Soft threshold: publish this mutation as an ordinary patch and
			// compact from the resulting snapshot in the background.
			s := sh.patchSnapshot(prev, sh.enc, roots, publishMaxDirtyFraction)
			if s == nil {
				return nil
			}
			sh.startCompactionLocked(s)
			return s
		}
	}
	s := sh.patchSnapshot(prev, sh.enc, roots, publishMaxDirtyFraction)
	if s == nil && c != nil && !c.replayAll {
		// The frozen layout, the dirty budget or the arena's capacity
		// refused the patch. With a (non-poisoned) compaction in flight the
		// fallback is deferred to it
		// instead of rebuilding inline: wait for the build and reconcile —
		// the fresh base often absorbs what the stale layout could not. The
		// aborted patch's encoder staging was rolled back by patchSnapshot,
		// so the live table's accounting stays exact however long the
		// fallback takes to land.
		<-c.done
		return sh.reconcileLocked(c)
	}
	return s
}

// bgCompactionOffLocked reports whether background compaction is
// unavailable — quarantined after repeated failures (Degraded), the shard
// closed, or switched off by the differential tests' hook. Everywhere it is
// true, threshold crossings compact inline.
//
//act:requires mu
func (sh *shard) bgCompactionOffLocked() bool {
	return sh.opt.noBgCompact || sh.closed || sh.quarantined.Load() != nil
}

// patchSnapshot assembles a snapshot of the current writer state by patching
// base with the dirty regions under roots, re-encoding through enc (the
// encoder that produced base's entries: the live encoder when base is the
// previous snapshot, the fresh one when base is a compaction result being
// reconciled). maxDirtyFraction budgets the patch against base's size. It
// returns nil when the patch cannot (or should not) be applied — the
// encoder's staged work is rolled back exactly, so any fallback may be
// deferred indefinitely without leaking table garbage.
//
//act:requires mu
//act:freezer
//act:seam
func (sh *shard) patchSnapshot(base *part, enc *cellindex.Encoder, roots []cellid.CellID, maxDirtyFraction float64) *part {
	if len(roots) == 0 {
		return &part{
			polys:          sh.polys,
			cells:          base.cells,
			tree:           base.tree,
			table:          base.table,
			opt:            sh.opt,
			precisionLevel: sh.precisionLevel,
		}
	}
	// Bail before any splice or encoder work when the regions' footprint
	// alone disqualifies a patch — bulk mutations should pay for one full
	// rebuild, not for a discarded patch on top of it. (The emitted side is
	// only known after the splice; the check below re-tests it.)
	maxDirty := int(maxDirtyFraction * float64(base.cells.Len()))
	if len(roots) > mergeRootsMin {
		// mergePatchRoots counts every region it emits, so its estimate
		// doubles as the budget pre-check.
		var preDirtyOld int
		roots, preDirtyOld = mergePatchRoots(base.cells, roots, maxDirty)
		if preDirtyOld > maxDirty {
			return nil
		}
	} else {
		preDirtyOld := 0
		for _, r := range roots {
			preDirtyOld += base.cells.countRange(r.RangeMin(), r.RangeMax())
			if preDirtyOld > maxDirty {
				return nil
			}
		}
	}

	// Re-emit every dirty region from the writer tree into one fresh buffer
	// and splice it into the base rope, which shares every clean run and
	// copies only the tree paths to the regions. In the same pass the
	// encoder releases every replaced entry (the base tree maps any leaf of
	// a cell back to its entry) and re-encodes the regions' new cells,
	// journaled between Begin and Commit/Rollback so an abort restores the
	// accounting exactly.
	enc.Begin()
	abort := func() *part {
		enc.Rollback()
		return nil
	}
	dirtyBuf := make([]supercover.Cell, 0, 256)
	kvbuf := sh.kvScratch[:0]
	regions := make([]act.PatchRegion, len(roots))
	edits := make([]ropeEdit, len(roots))
	dirtyOld, dirtyNew := 0, 0
	for ri, r := range roots {
		if fault.Hit(fault.RopeSplice) != nil {
			return abort() // injected splice failure: ordinary patch abort
		}
		lo, hi := r.RangeMin(), r.RangeMax()
		if last := base.cells.before(lo); last != nil && last.ID.RangeMax() >= lo {
			// A clean cell straddles the region boundary — the dirty-tracking
			// invariant should make this impossible; rebuild to be safe.
			return abort()
		}
		base.cells.rangeRuns(lo, hi, func(seg []supercover.Cell) {
			for _, c := range seg {
				enc.Release(base.tree.Find(c.ID.RangeMin()))
			}
			dirtyOld += len(seg)
		})
		start := len(dirtyBuf)
		var ok bool
		dirtyBuf, ok = sh.sc.AppendRegion(dirtyBuf, r)
		if !ok {
			return abort()
		}
		region := dirtyBuf[start:len(dirtyBuf)]
		dirtyNew += len(region)
		kvStart := len(kvbuf)
		kvbuf = enc.AppendCells(kvbuf, region)
		regions[ri] = act.PatchRegion{Root: r, KVs: kvbuf[kvStart:len(kvbuf):len(kvbuf)]}
		edits[ri] = ropeEdit{lo: lo, hi: hi, from: start, to: len(dirtyBuf)}
	}
	sh.kvScratch = kvbuf[:0]

	dirty := dirtyOld
	if dirtyNew > dirty {
		dirty = dirtyNew
	}
	if dirty > maxDirty {
		return abort() // the emitted side grew too large for a patch to pay off
	}
	if sh.failPatches > 0 {
		sh.failPatches-- // test hook: force an abort after staging
		return abort()
	}

	patch := base.tree.Patch
	if sh.compacting != nil {
		// A fresh arena is on the way: a patch that outgrows this one's
		// headroom waits for it (the caller's deferred fallback) instead of
		// copying the whole arena on the writer.
		patch = base.tree.PatchInCapacity
	}
	// The snapshot keeps dirtyBuf (fresh per publish, never recycled), and
	// the splice re-merges adjacent regions' runs in it.
	newCells := base.cells.splice(edits, dirtyBuf)
	tree, ok := patch(regions, newCells.Len())
	if !ok {
		return abort()
	}
	enc.Commit()
	return &part{
		polys:          sh.polys,
		cells:          newCells,
		tree:           tree,
		table:          enc.Table().Freeze(),
		opt:            sh.opt,
		precisionLevel: sh.precisionLevel,
	}
}

// mergeRootsMin is the dirty-root count below which a patch keeps the roots
// as-is: merging pays off when a mutation shatters into hundreds of tiny
// regions, not for the handful a small edit produces.
const mergeRootsMin = 32

// mergePatchRoots greedily absorbs runs of spatially adjacent dirty roots
// into their common ancestor, as long as the clean cells the coarser region
// re-emits stay a small multiple of the dirty ones. A single Add at a fine
// precision shatters into hundreds of tiny regions (one per covering cell);
// patching them individually fragments the cell rope by ~2 runs each and
// pays per-region patch overhead, while their common ancestors cover the
// same dirt in a handful of regions. Re-emitting a clean cell is the
// identity (same bytes, same encoder record via dedup), so merging changes
// patch cost, never results. Roots arrive sorted and disjoint (CoalesceRoots
// order) and leave the same way; emitted is the total cell count of the
// returned regions (the caller's budget pre-check, already computed here).
func mergePatchRoots(base *cellRope, roots []cellid.CellID, maxDirty int) (merged []cellid.CellID, emitted int) {
	count := func(c cellid.CellID) int { return base.countRange(c.RangeMin(), c.RangeMax()) }
	out := make([]cellid.CellID, 0, len(roots))
	var lastMax cellid.CellID // range end of the last emitted group
	total := 0                // emitted cells across closed groups
	cur := roots[0]
	curCount := count(cur)
	dirty := curCount
	for _, r := range roots[1:] {
		if cur.Contains(r) {
			continue
		}
		rc := count(r)
		if lca, ok := cellid.CommonAncestor(cur, r); ok {
			// The level-0 guard keeps a merged region from swallowing a
			// whole face (which the frozen trie layout would refuse); the
			// lastMax guard keeps the coarser ancestor from reaching back
			// over the previously emitted group (regions must stay
			// disjoint); the remaining guards bound the re-emitted clean
			// cells per group, per merged region, and across the whole patch
			// — merging must never turn a patchable publish into a
			// budget-exceeded rebuild.
			if lc := count(lca); lca.Level() > 0 && lca.RangeMin() > lastMax &&
				lc <= 4*(dirty+rc)+64 && lc <= maxDirty/8 && total+lc <= maxDirty/2 {
				cur, curCount, dirty = lca, lc, dirty+rc
				continue
			}
		}
		out = append(out, cur)
		total += curCount
		lastMax = cur.RangeMax()
		cur, curCount, dirty = r, rc, rc
	}
	return append(out, cur), total + curCount
}

// mutablePolys returns sh.polys ready for in-place mutation, copying it
// first when a published snapshot still aliases it. extraCap reserves
// append room for the copy.
//
//act:requires mu
func (sh *shard) mutablePolys(extraCap int) []*geom.Polygon {
	if sh.polysShared {
		polys := make([]*geom.Polygon, len(sh.polys), len(sh.polys)+extraCap)
		copy(polys, sh.polys)
		sh.polys = polys
		sh.polysShared = false
	}
	return sh.polys
}

// resetToSnapshot rewinds the writer-side state to the snapshot s, given
// the dirty roots describing how the covering diverged from it (a failed
// publish captured them before the attempt). The undo is scoped by the same
// dirty tracking that drives incremental publishes: only the dirty subtree
// roots are detached and re-filled from the snapshot's frozen cells, so it
// costs O(mutation) instead of re-inserting every frozen cell through
// conflict resolution; bulk mutations (or a region the splice cannot
// express) fall back to the full rebuild.
//
//act:requires mu
func (sh *shard) resetToSnapshot(s *part, roots []cellid.CellID, all bool) {
	if all || !sh.restoreRegions(s, roots) {
		// Re-inserting the frozen cells rebuilds every piece of writer-side
		// state, including the per-polygon cell directory.
		sc := supercover.New()
		sc.SetWalkRemoval(sh.opt.walkRemoval)
		s.cells.eachRun(func(run []supercover.Cell) {
			for _, c := range run {
				sc.Insert(c.ID, c.Refs)
			}
		})
		sc.TakeDirty() // the rebuild is the published state; nothing is dirty
		sh.sc = sc
	}
	sh.polys = s.polys
	sh.polysShared = true
}

// rewindTo rewinds the shard's writer state to prev, the part it held
// before a multi-shard commit that failed on a later shard. That commit
// published nothing, so readers never saw the part being dropped; only the
// writer, which froze it into cur, must take it back.
//
// Unlike after a failed publish, the writer here is *ahead* of prev — its
// dirty marks were consumed by the successful freeze — so the region-scoped
// undo cannot express the rewind and the covering is rebuilt wholesale.
// The cost is O(shard), acceptable for a rare failure path. Any in-flight
// compaction is abandoned (its base may descend from the dropped part) and
// the encoder is replaced: the next publish takes the full-freeze path,
// which rebuilds consistent encoder state from scratch.
func (sh *shard) rewindTo(prev *part) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.abandonCompactionLocked()
	sh.enc = cellindex.NewEncoder()
	sh.fullNext = true
	sh.sc.TakeDirty() // drop stale marks; the reset below rebuilds from scratch
	sh.resetToSnapshot(prev, nil, true)
	sh.cur = prev
}

// restoreRegions resets every dirty subtree from the snapshot's frozen
// cells. On any failure the covering may be partially reset — still safe,
// because the caller then rebuilds it from scratch.
//
//act:requires mu
func (sh *shard) restoreRegions(s *part, roots []cellid.CellID) bool {
	var scratch []supercover.Cell
	for _, r := range roots {
		scratch = s.cells.appendRange(scratch[:0], r.RangeMin(), r.RangeMax())
		if !sh.sc.ResetRegion(r, scratch) {
			sh.sc.TakeDirty()
			return false
		}
	}
	// Drop the marks the resets' inserts just made: the writer now matches
	// the published snapshot exactly.
	sh.sc.TakeDirty()
	return true
}

// publishCounters reports how many publishes took the incremental patch
// path vs the full-rebuild path (tests and benchmarks assert the fast path
// actually engages).
func (sh *shard) publishCounters() (patched, full int) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.patched, sh.full
}

// Shard-side staging: the Index (update.go) decomposes every mutation into
// per-shard op lists — coverings pre-computed and pre-routed to the owning
// shard — and each shard stages its list and publishes once, under its own
// mutex. The ops carry global polygon ids (assigned by the Index's
// registry) rather than deriving them from the local polygon slice, which
// is why staging here pads the slice with tombstones up to the id: a shard
// only grows past an id when a later mutation forces the length, and a nil
// slot is indistinguishable from a removed polygon — exactly the semantics
// merged reads want.

// shardOpKind discriminates shardOp.
type shardOpKind uint8

const (
	shardOpAdd shardOpKind = iota
	shardOpRemove
	shardOpTrain
)

// shardOp is one routed mutation for one shard.
type shardOp struct {
	kind shardOpKind

	// add / remove
	id PolygonID
	// add
	gp          *geom.Polygon
	covering    []cellid.CellID // covering cells routed to this shard
	interior    []cellid.CellID // interior cells routed to this shard
	refineLevel int
	// train
	points   []cellid.CellID // training points routed to this shard
	maxCells int             // per-shard budget (0 = unlimited), set at commit
	skip     bool            // train only: global budget already exhausted
	trainRes *supercover.TrainResult
}

// applyShardOps stages a routed op batch on this shard and freezes it into
// cur once; the caller publishes. Staging is always followed by the freeze,
// with no caller code in between, so nothing staged can outlive the call:
// on a failure the shard itself is already rewound (recoverFailedPublish)
// and cur unchanged — only the *other* shards of a multi-shard batch need
// rewinding.
//
//act:requires mu
func (sh *shard) applyShardOps(ops []shardOp) error {
	if sh.closed {
		return ErrClosed
	}
	for i := range ops {
		sh.stageShardOp(&ops[i])
	}
	return sh.publish()
}

// stageShardOp stages one routed op into the writer-side state, with the
// id, coverings and budget supplied by the router.
//
//act:requires mu
func (sh *shard) stageShardOp(op *shardOp) {
	switch op.kind {
	case shardOpAdd:
		extra := int(op.id) + 1 - len(sh.polys)
		if extra < 0 {
			extra = 0
		}
		polys := sh.mutablePolys(extra)
		for len(polys) <= int(op.id) {
			polys = append(polys, nil)
		}
		polys[op.id] = op.gp
		sh.polys = polys
		insertCells(sh.sc, op.covering, refs.MakeRef(op.id, false))
		insertCells(sh.sc, op.interior, refs.MakeRef(op.id, true))
		if op.refineLevel > 0 && len(op.covering) > 0 {
			sh.sc.RefineCells(sh.polys, op.covering, op.refineLevel)
		}
	case shardOpRemove:
		// Validation happened in the sharded registry; a shard that never
		// grew past the id (or already holds a tombstone) has nothing to do.
		if int(op.id) < len(sh.polys) && sh.polys[op.id] != nil {
			sh.sc.RemovePolygon(op.id)
			sh.mutablePolys(0)[op.id] = nil
		}
	case shardOpTrain:
		var res supercover.TrainResult
		if op.skip {
			res = supercover.TrainResult{BudgetReached: true}
		} else {
			res = sh.sc.Train(sh.polys, op.points, op.maxCells)
		}
		if op.trainRes != nil {
			*op.trainRes = res
		}
	}
}

// insertCells inserts cells into the covering, each referencing ref.
func insertCells(sc *supercover.SuperCovering, cells []cellid.CellID, ref refs.Ref) {
	rs := []refs.Ref{ref}
	for _, c := range cells {
		sc.Insert(c, rs)
	}
}

// writerNumCells reports the writer-side covering size under the mutex;
// Train uses it to convert the global cell budget into per-shard remainders
// as the commit walks the shards.
func (sh *shard) writerNumCells() int {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.sc.NumCells()
}

// footprint returns the number of writer-side covering cells referencing
// the polygon; see Index.FootprintCells.
func (sh *shard) footprint(id PolygonID) int {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.sc.Footprint(id)
}
