package actjoin

import (
	"errors"
	"fmt"
	"slices"

	"actjoin/internal/cellid"
	"actjoin/internal/cover"
	"actjoin/internal/fault"
	"actjoin/internal/geom"
	"actjoin/internal/join"
	"actjoin/internal/supercover"
)

// Runtime polygon updates — the extension the paper sketches in Section
// 3.1.2: "In the build phase, cells of individual polygons are inserted
// one-by-one into ACT. The same procedure could be used to add new polygons
// at runtime … Code for removing polygons would follow the same logic."
//
// The paper leaves the synchronization of runtime updates to the caller;
// here it is the snapshot swap. Every mutation takes one path: its covering
// is computed once and routed into a per-shard op plan; each owning shard
// stages its ops into its writer-side super covering under its own mutex
// (stageShardOp) and rebuilds the frozen trie off to the side; and the
// composed view is published with one atomic pointer swap. Queries running
// against the previous snapshot are never blocked and never observe a
// half-applied update.
//
// Publish latency is bounded by the mutation, not the index: steady-state
// publishes patch the previous snapshot, and the garbage that patching
// accumulates is compacted by a background goroutine (see compaction.go)
// rather than by a stop-the-writer rebuild, so even the publish that
// crosses a compaction threshold stays mutation-sized.

// ErrRemoved is returned when operating on a polygon id that was removed.
var ErrRemoved = errors.New("actjoin: polygon already removed")

// Add indexes one more polygon at runtime, publishes, and returns the
// polygon's id. The new polygon's cells go through the usual covering,
// conflict resolution and — when the index has a precision bound —
// boundary refinement scoped to the covering's cells, so queries keep
// their exactness and precision guarantees. The covering is computed once
// and routed to the owning shards, and each owner stages and publishes its
// part. A polygon contained in one shard's range — the common case for
// city-scale polygons under a well-balanced split — commits under the
// shared side of the commit lock and contends only with writers of the
// same shard.
//
// On a publish failure (a catastrophic freeze error) the add is rolled back
// on every shard that had committed it — the id is void, the published
// snapshot unchanged, and the writer remains usable — and the error is
// returned. Add on a closed index returns ErrClosed.
func (ix *Index) Add(p Polygon) (PolygonID, error) {
	gp, err := toGeom(p)
	if err != nil {
		return 0, fmt.Errorf("actjoin: add: %w", err)
	}
	covering, interior := coverPolygon(gp, ix.opt)
	id, err := ix.reserveID()
	if err != nil {
		return 0, err
	}
	plan, mask := ix.planAdd(id, gp, covering, interior)
	if err := ix.commitPlan(plan); err != nil {
		ix.unreserveID(id)
		return 0, err
	}
	ix.setOwners(id, mask)
	return id, nil
}

// planAdd routes one add's coverings into a per-shard op plan and returns
// the owner mask.
func (ix *Index) planAdd(id PolygonID, gp *geom.Polygon, covering, interior []cellid.CellID) (plan [][]shardOp, mask uint64) {
	rcov := ix.router.route(covering)
	rint := ix.router.route(interior)
	refineLevel := addRefineLevel(gp, ix.opt, ix.precisionLevel)
	plan = make([][]shardOp, len(ix.shards))
	for si := range plan {
		if len(rcov[si]) == 0 && len(rint[si]) == 0 {
			continue
		}
		plan[si] = []shardOp{{
			kind: shardOpAdd, id: id, gp: gp,
			covering: rcov[si], interior: rint[si], refineLevel: refineLevel,
		}}
		mask |= 1 << uint(si)
	}
	if mask == 0 {
		// Degenerate covering; see the same case in NewShardedIndex.
		si := ix.router.shardOfLeaf(cellid.FromPoint(gp.Bound().Center()))
		plan[si] = []shardOp{{kind: shardOpAdd, id: id, gp: gp}}
		mask = 1 << uint(si)
	}
	return plan, mask
}

// Remove deletes a polygon from every shard holding its cells and publishes
// their new snapshots. Its id is never reused; queries on later snapshots
// never report it again. Counts slices from joins keep their length (the
// removed id's slot stays zero).
//
// Cost: O(polygon footprint), not O(index) — each shard's per-polygon cell
// directory records exactly which covering cells reference the polygon, so
// both the removal and the incremental publish that follows touch only
// those cells (see FootprintCells).
//
// A failed commit rolls the removal back everywhere (including the registry
// claim) and returns the error; a closed index returns ErrClosed.
func (ix *Index) Remove(id PolygonID) error {
	mask, err := ix.claimRemove(id)
	if err != nil {
		return err
	}
	plan := make([][]shardOp, len(ix.shards))
	for si := range plan {
		if mask&(1<<uint(si)) != 0 {
			plan[si] = []shardOp{{kind: shardOpRemove, id: id}}
		}
	}
	if err := ix.commitPlan(plan); err != nil {
		ix.setOwners(id, mask) // the shards rolled back; restore the claim
		return err
	}
	return nil
}

// Train adapts the index to an expected point distribution (the paper's
// Section 3.3.1): every training point hitting a cell that would require a
// PIP test splits that cell one level, until maxCells (0 = unlimited) is
// reached, then publishes. Queries keep running against the previous
// snapshot until the publish. The training stream is radix-split to the
// owning shards, and each shard trains on its sub-stream. The cell budget
// is global — as the commit walks the shards it converts maxCells into the
// remainder the current shard may still spend, so the total never exceeds
// the budget; which cells get the splits can differ between shard counts
// when the budget binds, since shards spend it in shard order rather than
// in global stream order.
//
// Training is advisory, so failures degrade to a no-op rather than an
// error: on a closed index or a failed commit it returns zero TrainStats
// and every shard is rolled back.
func (ix *Index) Train(points []Point, maxCells int) TrainStats {
	if ix.isClosed() {
		return TrainStats{}
	}
	results := make([]supercover.TrainResult, len(ix.shards))
	if err := ix.commitMulti(ix.planTrain(points, maxCells, results)); err != nil {
		return TrainStats{}
	}
	var st TrainStats
	for si := range results {
		st.PointsSeen += results[si].PointsSeen
		st.CellsSplit += results[si].Splits
		st.BudgetReached = st.BudgetReached || results[si].BudgetReached
	}
	st.NumCells = ix.totalWriterCells()
	return st
}

// planTrain radix-splits a training stream into a per-shard op plan. With
// results non-nil, each shard's op reports its outcome into its slot.
func (ix *Index) planTrain(points []Point, maxCells int, results []supercover.TrainResult) [][]shardOp {
	cells := make([]cellid.CellID, len(points))
	toCells(cells, nil, points)
	order, offsets := join.PartitionByShard(cells, ix.router.bounds)
	plan := make([][]shardOp, len(ix.shards))
	for si := range plan {
		lo, hi := offsets[si], offsets[si+1]
		if lo == hi {
			continue
		}
		sub := make([]cellid.CellID, hi-lo)
		for k := range sub {
			sub[k] = cells[order[lo+k]]
		}
		op := shardOp{kind: shardOpTrain, points: sub, maxCells: maxCells}
		if results != nil {
			op.trainRes = &results[si]
		}
		plan[si] = []shardOp{op}
	}
	return plan
}

// Tx is the write transaction handed to Apply. Mutations staged through it
// are routed but not committed until fn returns; the whole batch then
// commits as one multi-shard commit, so queries observe either none of it
// or all of it. A Tx is only valid inside its Apply call and must not be
// used from other goroutines or retained; calling the Index's own mutation
// methods from within fn deadlocks on the registry lock Apply holds.
//
// Train stages a training pass but reports no TrainStats: staged training
// runs at commit time, interleaved with the batch's other ops, and its
// outcome is not known while fn is still staging.
type Tx struct {
	noCopy noCopy

	ix   *Index
	base int                  // registry length at Apply entry; ids from here are this tx's
	plan [][]shardOp          // per-shard staged ops, in staging order
	mask map[PolygonID]uint64 // staged owner-mask overlay (0 = staged remove)
}

func (tx *Tx) index() *Index {
	if tx.ix == nil {
		panic("actjoin: Tx used outside its Apply call")
	}
	return tx.ix
}

// Add stages one more polygon, returning the id it will have once the
// transaction commits.
//
//act:requires regMu
func (tx *Tx) Add(p Polygon) (PolygonID, error) {
	ix := tx.index()
	if len(ix.regOwners) >= MaxPolygons {
		return 0, fmt.Errorf("actjoin: polygon limit %d reached", MaxPolygons)
	}
	gp, err := toGeom(p)
	if err != nil {
		return 0, fmt.Errorf("actjoin: add: %w", err)
	}
	covering, interior := coverPolygon(gp, ix.opt)
	id := PolygonID(len(ix.regOwners))
	ix.regOwners = append(ix.regOwners, 0)
	plan, mask := ix.planAdd(id, gp, covering, interior)
	for si, ops := range plan {
		tx.plan[si] = append(tx.plan[si], ops...)
	}
	tx.mask[id] = mask
	return id, nil
}

// Remove stages the deletion of a polygon, validating against the staged
// state (a polygon added earlier in the same transaction can be removed).
//
//act:requires regMu
func (tx *Tx) Remove(id PolygonID) error {
	ix := tx.index()
	if int(id) >= len(ix.regOwners) {
		return fmt.Errorf("actjoin: unknown polygon id %d", id)
	}
	mask, staged := tx.mask[id]
	if !staged {
		mask = ix.regOwners[id]
	}
	if mask == 0 {
		return ErrRemoved
	}
	for si := range tx.plan {
		if mask&(1<<uint(si)) != 0 {
			tx.plan[si] = append(tx.plan[si], shardOp{kind: shardOpRemove, id: id})
		}
	}
	tx.mask[id] = 0
	return nil
}

// Train stages a training pass over the staged state; see the Tx comment
// for why it reports no stats.
func (tx *Tx) Train(points []Point, maxCells int) {
	for si, ops := range tx.index().planTrain(points, maxCells, nil) {
		tx.plan[si] = append(tx.plan[si], ops...)
	}
}

// Apply runs a batch of mutations as one transaction: fn stages through the
// Tx, and the staged batch commits as one multi-shard commit — queries
// observe either none of it or all of it, and each shard publishes at most
// one new snapshot for the whole batch, so the cost of rebuilding the
// frozen trie is paid once instead of per mutation. If fn returns an error
// (or panics), nothing was committed anywhere, the error (or panic)
// propagates to the caller, and the ids handed out by tx.Add are void; if
// the commit itself fails partway, nothing was published, every shard that
// had already frozen its part is rewound, and the outcome is the same.
//
// fn must mutate only through tx — calling Add, Remove, Train or Apply on
// the Index itself from inside fn deadlocks on the registry lock Apply
// holds for the duration of the transaction. Queries (Current and any
// Snapshot) remain safe from anywhere, including inside fn.
func (ix *Index) Apply(fn func(tx *Tx) error) error {
	ix.regMu.Lock()
	defer ix.regMu.Unlock()
	if ix.closed {
		return ErrClosed
	}
	tx := Tx{
		ix:   ix,
		base: len(ix.regOwners),
		plan: make([][]shardOp, len(ix.shards)),
		mask: make(map[PolygonID]uint64),
	}
	committed := false
	defer func() {
		// Runs on the error path AND when fn panics: invalidate the tx and
		// truncate the ids it reserved. Nothing was staged on any shard yet
		// — the plan only commits below — so the registry is the only state
		// to roll back. (Registered LIFO after the Unlock defer, so it runs
		// while regMu is still held.)
		tx.ix = nil
		if !committed {
			ix.regOwners = ix.regOwners[:tx.base]
		}
	}()
	if err := fn(&tx); err != nil {
		return err
	}
	if err := ix.commitMulti(tx.plan); err != nil {
		return err
	}
	committed = true
	for id, mask := range tx.mask {
		ix.regOwners[id] = mask
	}
	return nil
}

// commitPlan commits a routed op plan, taking the shared commit path when
// exactly one shard participates (it swaps only its own slot of the view,
// so no exclusive lock is needed) and the multi-shard path otherwise.
func (ix *Index) commitPlan(plan [][]shardOp) error {
	single := -1
	for si := range plan {
		if len(plan[si]) == 0 {
			continue
		}
		if single >= 0 {
			single = -2
			break
		}
		single = si
	}
	switch {
	case single == -1:
		return nil
	case single >= 0:
		return ix.commitSingle(single, plan[single])
	default:
		return ix.commitMulti(plan)
	}
}

// commitSingle commits one shard's ops under the shared side of the commit
// lock: concurrent single-shard commits on different shards proceed in
// parallel, serialized only against multi-shard commits.
func (ix *Index) commitSingle(si int, ops []shardOp) error {
	ix.wmu.RLock()
	defer ix.wmu.RUnlock()
	sh := ix.shards[si]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if err := sh.applyShardOps(ops); err != nil {
		return err
	}
	sh.publishView()
	return nil
}

// commitMulti commits an op plan that may span shards under the exclusive
// side of the commit lock, which keeps every other view writer out: each
// participating shard freezes its new part in ascending order, and only
// when all have succeeded does one store publish them together, so readers
// observe the batch on every shard or on none. When a shard fails —
// including an injected fault.ShardCommit — nothing has been published, and
// the shards that already froze their part are rewound to the part the
// view still holds before the error returns.
//
//act:publisher
func (ix *Index) commitMulti(plan [][]shardOp) error {
	ix.wmu.Lock()
	defer ix.wmu.Unlock()
	old := ix.view.Load()
	parts := slices.Clone(old.parts)
	for si, ops := range plan {
		if len(ops) == 0 {
			continue
		}
		ix.budgetTrainOps(si, ops)
		p, err := ix.commitShard(si, ops)
		if err != nil {
			for di := 0; di < si; di++ {
				if len(plan[di]) > 0 {
					ix.shards[di].rewindTo(old.parts[di])
				}
			}
			return err
		}
		parts[si] = p
	}
	ix.view.Store(&Snapshot{parts: parts, router: ix.router})
	return nil
}

// commitShard freezes one shard's slice of a multi-shard commit and returns
// its new part, containing a panic from the commit seam or the shard's
// publish machinery as an error: a panic escaping mid-fan-out would skip
// the rewind of the shards that already froze their part, so it must
// surface as the same failure an error does.
//
//act:requires wmu
//act:seam
func (ix *Index) commitShard(si int, ops []shardOp) (p *part, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("actjoin: shard %d commit panicked: %v", si, r)
		}
	}()
	if err := fault.Hit(fault.ShardCommit); err != nil {
		return nil, err
	}
	sh := ix.shards[si]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if err := sh.applyShardOps(ops); err != nil {
		return nil, err
	}
	return sh.cur, nil
}

// budgetTrainOps converts the global cell budget of each staged training op
// into the remainder shard si may spend: the global budget minus every
// other shard's current covering size. Earlier shards of the same commit
// have already spent their share (the commit lock keeps the counts stable),
// so the remainder shrinks as the fan-out progresses and the total stays
// within the global budget. An exhausted budget skips the shard's pass
// outright (Train treats 0 as unlimited, so 0 cannot express it).
//
//act:requires wmu
func (ix *Index) budgetTrainOps(si int, ops []shardOp) {
	for i := range ops {
		op := &ops[i]
		if op.kind != shardOpTrain || op.maxCells <= 0 {
			continue
		}
		others := 0
		for sj, sh := range ix.shards {
			if sj != si {
				others += sh.writerNumCells()
			}
		}
		if remaining := op.maxCells - others; remaining >= 1 {
			op.maxCells = remaining
		} else {
			op.skip = true
		}
	}
}

// reserveID assigns the next polygon id, leaving its owner mask empty until
// the add commits; a concurrent reader treats the empty mask as a removed
// id, which is exactly the not-yet-visible semantics an uncommitted add
// wants.
func (ix *Index) reserveID() (PolygonID, error) {
	ix.regMu.Lock()
	defer ix.regMu.Unlock()
	if ix.closed {
		return 0, ErrClosed
	}
	if len(ix.regOwners) >= MaxPolygons {
		return 0, fmt.Errorf("actjoin: polygon limit %d reached", MaxPolygons)
	}
	id := PolygonID(len(ix.regOwners))
	ix.regOwners = append(ix.regOwners, 0)
	return id, nil
}

// unreserveID rolls a reservation back after a failed add: the slot is
// reclaimed when still the newest, otherwise left void (mask 0), matching
// the rule that a failed Add's id is simply never handed out again.
func (ix *Index) unreserveID(id PolygonID) {
	ix.regMu.Lock()
	defer ix.regMu.Unlock()
	if int(id) == len(ix.regOwners)-1 {
		ix.regOwners = ix.regOwners[:id]
	}
}

// setOwners records a committed polygon's owner mask (or restores a claim
// after a failed remove).
func (ix *Index) setOwners(id PolygonID, mask uint64) {
	ix.regMu.Lock()
	defer ix.regMu.Unlock()
	ix.regOwners[id] = mask
}

// claimRemove validates a removal and claims it by clearing the owner mask;
// the caller restores the mask if the commit fails. Claiming up front makes
// concurrent removes of the same id race to exactly one winner.
func (ix *Index) claimRemove(id PolygonID) (uint64, error) {
	ix.regMu.Lock()
	defer ix.regMu.Unlock()
	if ix.closed {
		return 0, ErrClosed
	}
	if int(id) >= len(ix.regOwners) {
		return 0, fmt.Errorf("actjoin: unknown polygon id %d", id)
	}
	mask := ix.regOwners[id]
	if mask == 0 {
		return 0, ErrRemoved
	}
	ix.regOwners[id] = 0
	return mask, nil
}

func (ix *Index) isClosed() bool {
	ix.regMu.Lock()
	defer ix.regMu.Unlock()
	return ix.closed
}

// totalWriterCells sums the shards' writer-side covering sizes under the
// shared commit lock (so no multi-shard commit is midway through spending a
// budget while the sum is taken).
func (ix *Index) totalWriterCells() int {
	ix.wmu.RLock()
	defer ix.wmu.RUnlock()
	total := 0
	for _, sh := range ix.shards {
		total += sh.writerNumCells()
	}
	return total
}

// coverPolygon computes a polygon's covering and interior covering under the
// index's budgets — the cells an Add routes to the owning shards.
func coverPolygon(gp *geom.Polygon, opt options) (covering, interior []cellid.CellID) {
	co := opt.coverOptions()
	return cover.Covering(gp, co.Covering), cover.InteriorCovering(gp, co.Interior)
}

// addRefineLevel returns the refinement level an Add must restore around its
// covering cells, or 0 when the index is exact-only.
//
// Only the regions of the new covering cells can violate the precision
// invariant: insertion places references (its own, and copies made by
// conflict resolution) strictly inside the inserted cells, and everything
// outside them satisfied the invariant before the add. Refining those
// subtrees — instead of rescanning every boundary cell of every polygon —
// makes Add O(covering) rather than O(index).
//
// The refinement level is re-derived from the new polygon's own latitude:
// cell diagonals in meters grow toward the equator, so a polygon added
// equatorward of the build set needs deeper cells than the build-time level
// to honor the same meter bound. The equator-nearest latitude of the
// polygon's bound is its worst case. Never going coarser than the build
// level keeps the invariant of the old references that conflict resolution
// copied inside the seeds.
func addRefineLevel(gp *geom.Polygon, opt options, precisionLevel int) int {
	if precisionLevel == 0 {
		return 0
	}
	lat := equatorNearestLat(gp.Bound())
	level := cellid.LevelForMaxDiagonalMeters(opt.precisionMeters, lat)
	if level < precisionLevel {
		level = precisionLevel
	}
	return level
}

// equatorNearestLat returns the latitude within the rect's extent where
// grid cells are metrically largest (closest to the equator).
func equatorNearestLat(r geom.Rect) float64 {
	switch {
	case r.Lo.Y <= 0 && r.Hi.Y >= 0:
		return 0
	case r.Lo.Y > 0:
		return r.Lo.Y
	default:
		return r.Hi.Y
	}
}

// FootprintCells returns the number of super-covering cells currently
// referencing the polygon in the writer-side state, summed over the shards
// holding them — the cost driver of Remove and of the incremental publish
// that follows it. Removed (or never referenced) polygons report 0. A cell
// split at a shard boundary counts once per piece. It is a writer-side
// diagnostic, not a snapshot property.
func (ix *Index) FootprintCells(id PolygonID) int {
	n := 0
	for _, sh := range ix.shards {
		n += sh.footprint(id)
	}
	return n
}

// TrainStats reports the outcome of Train.
type TrainStats struct {
	PointsSeen    int
	CellsSplit    int
	BudgetReached bool
	NumCells      int // cells after training
}
