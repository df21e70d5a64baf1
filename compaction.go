package actjoin

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"actjoin/internal/act"
	"actjoin/internal/cellid"
	"actjoin/internal/cellindex"
	"actjoin/internal/fault"
	"actjoin/internal/supercover"
)

// Background compaction: the stop-the-writer escape from patch garbage.
//
// Incremental publishes accumulate garbage — orphaned trie arena nodes,
// tombstoned lookup-table records, dead cells in rope buffers — and the
// classic answer, a full compacting rebuild, stalls the writer for hundreds
// of milliseconds at large coverings (~300-470 ms at the 0.9M-cell NYC
// benchmark). The background compactor moves that reorganization off the
// writer's critical path, the way LSM engines and concurrent garbage
// collectors do:
//
//  1. When a publish crosses a *soft* garbage threshold, it still patches
//     (publish latency stays bounded by the mutation) and kicks off a
//     goroutine that rebuilds everything from the snapshot it just
//     published: re-encode the frozen cell rope's runs into a fresh
//     Encoder/lookup table and act.Build a fresh trie arena. The result's
//     rope shares the base's runs, except that the runs of a backing array
//     the rope covers less than half of are re-packed into one fresh array,
//     so the dead cells it retains never exceed the cells it holds. The
//     build reads only immutable snapshot state, so it runs with no lock
//     held and never disturbs concurrently-held frozen views — the old
//     arena and table are left exactly as every published snapshot sees
//     them.
//  2. Meanwhile the writer keeps patching the old chain, recording every
//     publish's dirty roots in a replay log, with the garbage thresholds
//     raised to *hard caps* so memory stays bounded if the compaction is
//     slow.
//  3. On completion the compactor takes the commit lock (shared) and the
//     writer mutex, re-applies the replay log against the fresh base
//     through the ordinary patch machinery (the regions are re-emitted from
//     the current writer state, so the result is byte-identical to an
//     inline rebuild of that state), and swaps the reconciled part in. The fresh encoder replaces the
//     live one; the old chain's garbage becomes unreferenced memory that
//     the Go runtime reclaims once the last reader of the old snapshots
//     lets go.
//
// A publish that reaches a hard cap, or whose patch the frozen layout
// refuses while a compaction is in flight, waits for the in-flight build
// (bounded by its remaining time — it is already under way) and lands it
// synchronously instead of paying for an inline rebuild. The inline rebuild
// remains the fallback of last resort: bulk mutations, replay overflow, and
// the Degraded state below (the differential tests also force it through an
// unexported option, as the reference the compactor is checked against).
//
// Failure domain: the compactor goroutine is fully contained. A panic in
// the build phase is recovered and retried with capped exponential backoff;
// a panic in the landing phase is recovered (after the deferred mutex
// unlock, so the writer is never blocked on a dead goroutine) and the
// result dropped. After maxCompactorFailures consecutive failures the
// compactor quarantines itself: no further compactions start, the shard
// degrades to inline rebuilds at threshold crossings, and Health() reports
// Degraded with the cause. Close() cancels any in-flight build and waits
// for the goroutine.

// Background-compaction tuning. The soft thresholds (arenaMaxGarbageFraction,
// tableMaxGarbageFraction in shard.go) start a compaction; the hard caps
// below bound how far patching may outrun a slow compaction before the
// writer blocks on it. reconcileMaxDirtyFraction is the patch budget for
// replaying accumulated churn onto the fresh base — laxer than the
// per-publish budget because the alternative is the inline rebuild the
// compactor exists to avoid. maxReplayRoots bounds the replay log; past it
// the compaction is abandoned and the next threshold crossing rebuilds
// inline (bulk churn has outrun the compactor).
const (
	arenaHardGarbageFraction  = 0.60
	tableHardGarbageFraction  = 0.80
	reconcileMaxDirtyFraction = 0.50
	coalesceReplayRoots       = 1 << 14
	maxReplayRoots            = 1 << 20
)

// Compactor failure policy: a failed build attempt (recovered panic or
// injected error) is retried after compactorRetryBase << attempt, capped at
// compactorRetryCap; maxCompactorFailures consecutive failures — build or
// landing, without a successful landing in between — quarantine the
// compactor for the life of the shard.
const (
	maxCompactorFailures = 3
	compactorRetryBase   = 10 * time.Millisecond
	compactorRetryCap    = time.Second
)

// compactorBackoff returns the capped exponential delay before retry
// attempt+1 (attempt counts from 0).
func compactorBackoff(base time.Duration, attempt int) time.Duration {
	d := base << uint(attempt)
	if d <= 0 || d > compactorRetryCap {
		return compactorRetryCap
	}
	return d
}

// quarantine is the terminal compactor-failure state, published through an
// atomic pointer so the goroutine can set it without the writer mutex (a
// writer may be blocked on a build while holding it — see
// noteCompactorFailure).
type quarantine struct{ cause error }

// compactionArenaHeadroom returns the spare node capacity a freshly built
// compaction arena of arenaNodes nodes reserves (act.Build sizes arenas
// exactly). The arena serves every patch until the next compaction lands,
// and an append past its capacity would copy the whole arena on the writer.
// Those patches come in two stretches:
//
//   - Up to the soft threshold. Each patch orphans about as many nodes as
//     it appends, and GarbageRatio is orphaned over all arena nodes, so the
//     ratio passes arenaMaxGarbageFraction f after about N·f/(1−f) appended
//     nodes: N/3 at f = 1/4. The replay that lands this arena is part of
//     that stretch, since its copies count as garbage too.
//   - While the next compaction builds. Nothing bounds that growth ahead of
//     time (short of the hard cap), so it is estimated from observed
//     traffic: flightNodes, the nodes the writer appended to the live chain
//     while this compaction built. The growth varies by about half from one
//     build to the next, so twice the observation is reserved.
//
// When a build outruns the estimate anyway, the patch that would grow the
// arena is refused (PatchInCapacity) and the writer lands the in-flight
// compaction instead, so the arena is replaced only by a landing.
func compactionArenaHeadroom(arenaNodes, flightNodes int) int {
	const minHeadroom = 1 << 10
	soft := int(float64(arenaNodes) * arenaMaxGarbageFraction / (1 - arenaMaxGarbageFraction))
	return max(minHeadroom, soft+2*max(flightNodes, 0))
}

// compaction is one in-flight background compaction. The goroutine owns
// result until it closes done; base is an immutable published snapshot; the
// replay field annotations bind the log to the owning index's mutex.
type compaction struct {
	base     *part          //act:pinned — the frozen snapshot the compactor rebuilds from
	done     chan struct{}  // closed (via finish) once result is settled; read result only after <-done
	doneOnce sync.Once      // finish closes done exactly once on every terminal path
	result   *compactResult // set by finish; nil when the build failed or was cancelled

	// cancel tells the build to stop between phases and wakes backoff
	// sleeps; set (and cancelCh closed) at most once, by
	// abandonCompactionLocked.
	cancel   atomic.Bool //act:atomic
	cancelCh chan struct{}

	// replay collects the dirty roots of every publish since the compaction
	// started — the regions that must be re-applied to the fresh base before
	// it can replace the live chain. replayAll poisons the log (a bulk
	// publish or overflow landed meanwhile): the result must be discarded.
	// coalescedAt is the log length after the last in-place coalesce, so
	// re-coalescing only happens once the log has grown well past it.
	// The mutex is the owning shard's, not the compaction's own.
	replay      []cellid.CellID //act:guarded mu
	replayAll   bool            //act:guarded mu
	coalescedAt int             //act:guarded mu
}

// finish settles the compaction's terminal state and closes done. Every
// exit of the compactor goroutine funnels through it — success, failed
// build, cancellation, even the last-resort panic recovery — because a
// writer may be blocked on done (the hard-cap wait) with the mutex held:
// done must close in every outcome, exactly once.
func (c *compaction) finish(res *compactResult) {
	c.doneOnce.Do(func() {
		c.result = res
		close(c.done)
	})
}

// compactResult is the freshly rebuilt state a compaction hands back: the
// re-packed cell rope, a trie over a fresh arena, and the fresh encoder
// whose table replaces the live one at the swap.
type compactResult struct {
	cells *cellRope
	tree  *act.Tree
	enc   *cellindex.Encoder
}

// addReplay appends one publish's dirty roots to the replay log,
// re-coalescing it in place when it grows large (churn revisits the same
// regions, so the raw log is vastly more redundant than the disjoint root
// set it describes). all — or a log that stays huge even coalesced — poisons
// the compaction: a bulk rebuild changed state the roots no longer describe,
// or the churn has genuinely outrun what a replay can express.
//
//act:requires mu
func (c *compaction) addReplay(roots []cellid.CellID, all bool) {
	if all || c.replayAll {
		c.replayAll = true
		c.replay = nil
		return
	}
	c.replay = append(c.replay, roots...)
	// Coalesce once the log has grown well past its last coalesced size —
	// not on every append, or a log that stays large (because the churn
	// really is that disjoint) would pay a full O(n log n) sweep per
	// publish.
	if n := len(c.replay); n > coalesceReplayRoots && n > 2*c.coalescedAt {
		c.replay = supercover.CoalesceRoots(c.replay)
		c.coalescedAt = len(c.replay)
	}
	if len(c.replay) > maxReplayRoots {
		c.replayAll = true
		c.replay = nil
	}
}

// compactBase rebuilds every frozen structure from the base snapshot: the
// rope's sparse backing arrays re-packed (the rest shared), cells
// re-encoded run by run into a fresh lookup table, trie rebuilt into a
// fresh exactly-sized arena (plus patch headroom). It reads only immutable
// state — the rope's cells and their normalized reference lists are shared
// with published snapshots and are never written — so it is safe to run
// concurrently with readers of any snapshot and with the writer patching
// the old chain. live returns the shard's published part, read once at the
// end to size the headroom by how far the writer's chain grew past base
// meanwhile. cancel (optional) is polled between phases so an abandoned
// build stops burning CPU; a cancelled build returns nil.
func compactBase(base *part, live func() *part, cancel *atomic.Bool) *compactResult {
	cancelled := func() bool { return cancel != nil && cancel.Load() }
	cells := base.cells.repack()
	if cancelled() {
		return nil
	}
	enc := cellindex.NewEncoder()
	kvs := make([]cellindex.KeyEntry, 0, cells.Len())
	cells.eachRun(func(run []supercover.Cell) { kvs = enc.AppendFrozenCells(kvs, run) })
	if cancelled() {
		return nil
	}
	tree := act.Build(kvs, base.opt.delta)
	// Meaningless if an inline rebuild replaced the chain meanwhile, but
	// that rebuild also abandoned this compaction.
	flight := live().tree.ArenaNodes() - base.tree.ArenaNodes()
	tree.GrowArena(compactionArenaHeadroom(tree.ArenaNodes(), flight))
	return &compactResult{cells: cells, tree: tree, enc: enc}
}

// buildCompaction runs one guarded build attempt: a panic anywhere in the
// rebuild — injected or real — is recovered into an error instead of
// killing the process. The build touches only goroutine-private and frozen
// state, so a half-done attempt leaves nothing to clean up. res is nil with
// a nil error when the build observed cancellation and stopped early.
//
//act:seam
func buildCompaction(c *compaction, live func() *part) (res *compactResult, err error) {
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, fmt.Errorf("compaction build panicked: %v", r)
		}
	}()
	if err := fault.Hit(fault.CompactBuild); err != nil {
		return nil, err
	}
	return compactBase(c.base, live, &c.cancel), nil
}

// startCompactionLocked launches a background compaction from base (the
// snapshot the caller just published); there must be no compaction in
// flight. A closed or quarantined index starts nothing — its threshold
// crossings fall back to inline rebuilds.
//
//act:requires mu
func (sh *shard) startCompactionLocked(base *part) {
	if sh.closed || sh.quarantined.Load() != nil {
		return
	}
	c := &compaction{base: base, done: make(chan struct{}), cancelCh: make(chan struct{})}
	sh.compacting = c
	sh.compactionsStarted++
	sh.compactorWG.Add(1)
	go sh.runCompaction(c, sh.holdCompaction, sh.compactRetryBase)
}

// runCompaction is the compactor goroutine: build (with retries), then
// land. Both phases recover their own panics; the top-level recover is the
// last resort for the retry loop itself, quarantining the compactor
// outright because a failure there means the containment logic — not the
// build — is broken.
func (sh *shard) runCompaction(c *compaction, hold chan struct{}, retryBase time.Duration) {
	defer sh.compactorWG.Done()
	defer func() {
		if r := recover(); r != nil {
			c.finish(nil)
			sh.forceQuarantine(fmt.Errorf("actjoin: compactor failed outside a guarded phase: %v", r))
			sh.dropCompaction(c)
		}
	}()
	if retryBase <= 0 {
		retryBase = compactorRetryBase
	}
	var res *compactResult
	for attempt := 0; ; attempt++ {
		var err error
		res, err = buildCompaction(c, sh.published)
		if res != nil || c.cancel.Load() {
			break
		}
		if sh.noteCompactorFailure(err) {
			break // quarantined; landCompaction clears the registration
		}
		select {
		case <-c.cancelCh:
		case <-time.After(compactorBackoff(retryBase, attempt)):
		}
		if c.cancel.Load() {
			break
		}
	}
	c.finish(res)
	if hold != nil {
		<-hold // test hook: keep the result pending until released
	}
	sh.landCompaction(c)
}

// landCompaction tries to swap the finished compaction in, containing any
// landing failure: the guarded attempt reports a recovered panic as an
// error, and the cleanup drops the compaction and records the failure. The
// writer is unaffected beyond losing the compaction — it keeps patching the
// old chain, and the next threshold crossing starts (or inlines) a fresh
// one.
func (sh *shard) landCompaction(c *compaction) {
	err := sh.landGuarded(c)
	if err == nil {
		return
	}
	sh.noteCompactorFailure(err)
	sh.dropCompaction(c)
}

// dropCompaction deregisters c if it is still the in-flight compaction — the
// cleanup shared by every compactor failure path that did not reach the
// reconcile.
func (sh *shard) dropCompaction(c *compaction) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.compacting == c {
		sh.compacting = nil
	}
}

// landGuarded performs the landing under the commit lock, shared, and the
// writer mutex, taken in the order every commit takes them. The commit lock
// keeps the landing out of a multi-shard commit in flight, whose single
// store would otherwise overwrite the landed part, and whose replay roots
// the landed part would expose before the other shards publish theirs.
// (A writer blocked on c.done holds the commit lock too, but finish closes
// done before the landing starts.) The recover runs after the deferred
// unlocks (LIFO), so a panic between build completion and the swap — the
// CompactSwap injection point models exactly that window — releases both
// locks before it is turned into an error: the writer never blocks on a
// failed landing, and no half-reconciled part is ever published
// (reconcileLocked publishes nothing until it returns a fully patched
// part).
//
//act:seam
func (sh *shard) landGuarded(c *compaction) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("compaction landing panicked: %v", r)
		}
	}()
	sh.ix.wmu.RLock()
	defer sh.ix.wmu.RUnlock()
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.compacting != c {
		return nil // abandoned, or landed by the writer while we built
	}
	if c.result == nil {
		sh.compacting = nil // failed or cancelled build; nothing to land
		return nil
	}
	fault.MustHit(fault.CompactSwap)
	if s := sh.reconcileLocked(c); s != nil {
		// The reconciled part is byte-identical to the currently published
		// one (same cells, same polygons — only the backing arena and table
		// are fresh, the rope re-packed), so swapping it in is invisible to
		// readers and needs no writer involvement.
		sh.cur = s
		sh.publishView()
	}
	return nil
}

// noteCompactorFailure records one failed build or landing attempt and
// reports whether the failure count crossed the quarantine threshold. It is
// deliberately lock-free (atomics only): a writer that reached a hard cap
// blocks on c.done with mu still in its grip, so the goroutine's failure path must
// never need the mutex before finish() — taking it here would deadlock the
// writer against the very failure being recorded.
func (sh *shard) noteCompactorFailure(err error) bool {
	sh.compactionsFailed.Add(1)
	if n := sh.consecCompactFailures.Add(1); n >= maxCompactorFailures {
		sh.quarantined.CompareAndSwap(nil, &quarantine{cause: fmt.Errorf(
			"actjoin: background compaction quarantined after %d consecutive failures, last: %w", n, err)})
		return true
	}
	return false
}

// forceQuarantine quarantines the compactor unconditionally (last-resort
// containment), keeping the first recorded cause.
func (sh *shard) forceQuarantine(err error) {
	sh.compactionsFailed.Add(1)
	sh.consecCompactFailures.Add(1)
	sh.quarantined.CompareAndSwap(nil, &quarantine{cause: err})
}

// reconcileLocked lands a finished compaction: it re-applies the replay log
// to the fresh base through the ordinary patch machinery and, on success,
// installs the fresh encoder as the live one; the caller has observed
// c.done closed. On any failure (poisoned replay, a region
// the fresh layout cannot absorb, replay past its dirty budget) the
// compaction is abandoned and nil is returned — the caller falls back to
// the inline rebuild, or simply carries on patching the old chain until the
// next threshold crossing starts a new compaction. Each failure kind bumps
// its PublishStats counter.
//
//act:requires mu
//act:seam
func (sh *shard) reconcileLocked(c *compaction) *part {
	if sh.compacting != c {
		return nil
	}
	sh.compacting = nil
	if c.replayAll {
		sh.replayPoisoned++
		return nil
	}
	if c.result == nil {
		return nil // failed build landed through the writer's hard-cap wait
	}
	if err := fault.Hit(fault.Reconcile); err != nil {
		sh.reconcileAborts++
		return nil
	}
	res := c.result
	base := &part{
		polys:          sh.polys,
		cells:          res.cells,
		tree:           res.tree,
		table:          res.enc.Table().Freeze(),
		opt:            sh.opt,
		precisionLevel: sh.precisionLevel,
	}
	s := sh.patchSnapshot(base, res.enc, supercover.CoalesceRoots(c.replay), reconcileMaxDirtyFraction)
	if s == nil {
		sh.reconcileAborts++
		return nil
	}
	sh.enc = res.enc
	sh.compactionsLanded++
	sh.consecCompactFailures.Store(0)
	return s
}

// abandonCompactionLocked discards any in-flight compaction and cancels its
// build: the goroutine stops at its next phase boundary (or drops its
// result at the landing check if it already finished). Results discarded
// because bulk churn poisoned the replay log are counted.
//
//act:requires mu
func (sh *shard) abandonCompactionLocked() {
	c := sh.compacting
	if c == nil {
		return
	}
	sh.compacting = nil
	if c.replayAll {
		sh.replayPoisoned++
	}
	if !c.cancel.Swap(true) {
		close(c.cancelCh)
	}
}

// PublishStats reports, per publish path, how many snapshots the index has
// published, plus the background-compaction cycle counts. Diagnostics: the
// ratio of Patched to Full publishes shows whether the incremental path is
// engaging, and CompactionsLanded counts the garbage-collection cycles that
// ran off the writer's critical path (each one resets arena, table and rope
// garbage the way an inline Full rebuild would, without the write stall).
// The failure counters expose the containment machinery: in a healthy index
// they stay zero.
type PublishStats struct {
	// Patched counts publishes served by patching a previous snapshot
	// (including reconciliations that landed a background compaction).
	Patched int
	// Full counts publishes served by the inline full rebuild (the first
	// publish, bulk mutations, and compaction fallbacks).
	Full int
	// CompactionsStarted counts background compactions kicked off by a
	// soft-threshold crossing.
	CompactionsStarted int
	// CompactionsLanded counts background compactions whose result was
	// reconciled and swapped in; started minus landed were abandoned
	// (superseded by an inline rebuild, poisoned by bulk churn, or failed).
	CompactionsLanded int
	// CompactionsFailed counts compactor build and landing attempts that
	// panicked or errored; the panic was recovered, the attempt retried or
	// the result dropped. maxCompactorFailures consecutive failures
	// quarantine the compactor (Health reports Degraded).
	CompactionsFailed int
	// ReconcileAborts counts finished builds whose replay the fresh base
	// refused (past the reconcile budget, or a region the fresh layout
	// could not absorb): the result was discarded and the writer carried on
	// against the old chain.
	ReconcileAborts int
	// ReplayPoisoned counts compaction results discarded because a bulk
	// publish (or replay-log overflow) poisoned the replay log while the
	// build ran.
	ReplayPoisoned int
	// PublishPanics counts writer-side publish attempts that panicked and
	// were recovered; each fell back to the inline full freeze (or surfaced
	// an error when the freeze itself failed), never a torn snapshot.
	PublishPanics int
}

// PublishStats returns the publish-path counters, summed over the shards:
// the index serves one workload, so the aggregate is what an operator alerts
// on; per-shard degradation is reported by Health.
func (ix *Index) PublishStats() PublishStats {
	var st PublishStats
	for _, sh := range ix.shards {
		s := sh.publishStats()
		st.Patched += s.Patched
		st.Full += s.Full
		st.CompactionsStarted += s.CompactionsStarted
		st.CompactionsLanded += s.CompactionsLanded
		st.CompactionsFailed += s.CompactionsFailed
		st.ReconcileAborts += s.ReconcileAborts
		st.ReplayPoisoned += s.ReplayPoisoned
		st.PublishPanics += s.PublishPanics
	}
	return st
}

// publishStats returns one shard's publish-path counters.
func (sh *shard) publishStats() PublishStats {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return PublishStats{
		Patched:            sh.patched,
		Full:               sh.full,
		CompactionsStarted: sh.compactionsStarted,
		CompactionsLanded:  sh.compactionsLanded,
		CompactionsFailed:  int(sh.compactionsFailed.Load()),
		ReconcileAborts:    sh.reconcileAborts,
		ReplayPoisoned:     sh.replayPoisoned,
		PublishPanics:      sh.publishPanics,
	}
}
