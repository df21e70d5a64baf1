package actjoin

import (
	"runtime"
	"sync"
	"time"

	"actjoin/internal/act"
	"actjoin/internal/cellid"
	"actjoin/internal/geom"
	"actjoin/internal/join"
	"actjoin/internal/refs"
	"actjoin/internal/supercover"
)

// Snapshot is an immutable view of the index: per shard, the frozen
// Adaptive Cell Trie, the shared lookup table, the polygon set and the
// precision configuration, all frozen at one publish point, plus the router
// that maps probes to the shards. It carries every read operation of the
// library.
//
// Concurrency contract: a Snapshot never changes after it is published.
// All its methods are safe for unlimited concurrent use, take no locks, and
// never block on writers. A query sequence against one Snapshot — including
// a long batch join — observes a single consistent polygon set even while
// the owning Index publishes successors; call Index.Current again whenever
// a fresher view is wanted.
//
// Consistency across shards: a multi-shard commit (Apply, Train, or a
// mutation whose polygon spans shards) publishes all its shards' parts in
// one store, so a batch is observed either on every shard or on none.
// Independent single-shard mutations each swap their own shard's part and
// carry no cross-shard ordering promise, exactly as independent mutations
// on two separate indexes would not.
type Snapshot struct {
	parts  []*part     //act:frozen
	router shardRouter //act:frozen
}

// part is one shard's frozen state: what a shard freezes on every publish
// and what a Snapshot holds per shard.
type part struct {
	polys []*geom.Polygon //act:frozen
	cells *cellRope       //act:frozen — frozen super covering; serialization input
	tree  *act.Tree       //act:frozen
	table *refs.Table     //act:frozen
	opt   options

	precisionLevel int
}

// frozenCells materializes the snapshot's cell list in cell-id order (tests
// and tools; the hot paths iterate the ropes' runs directly).
func (s *Snapshot) frozenCells() []supercover.Cell {
	var out []supercover.Cell
	for _, p := range s.parts {
		out = p.cells.appendAll(out)
	}
	return out
}

// QueryOptions is the one options struct shared by every bulk query entry
// point (CoversBatch and JoinCount). The zero value is a sensible default:
// approximate mode, input order, all CPUs.
type QueryOptions struct {
	// Exact refines candidate hits with PIP tests; results then match
	// Covers. When false, results match CoversApprox.
	Exact bool
	// Sorted probes the points in cell-id order internally, so runs of
	// nearby points share trie paths and one walk per index cell; unsorted
	// streams share a walk only among consecutive points of one cell.
	// Results are always reported in input order.
	Sorted bool
	// Threads is the number of probe workers; 0 uses all CPUs, 1 runs
	// single-threaded.
	Threads int
}

func (o QueryOptions) internal() join.BatchOptions {
	mode := join.Approximate
	if o.Exact {
		mode = join.Exact
	}
	return join.BatchOptions{Mode: mode, Sorted: o.Sorted, Threads: o.Threads}
}

// Precision returns the configured precision bound in meters, or 0 when the
// index is exact-only.
func (s *Snapshot) Precision() float64 { return s.parts[0].opt.precisionMeters }

// NumPolygons returns the number of polygon id slots (live polygons plus
// tombstones of removed ones) in this snapshot: the maximum over the shards,
// since a shard's slice only grows past an id when it owns cells of it, so
// the longest slice has seen every committed id.
func (s *Snapshot) NumPolygons() int {
	n := 0
	for _, p := range s.parts {
		n = max(n, len(p.polys))
	}
	return n
}

// Removed reports whether the id belonged to a polygon that had been
// removed when this snapshot was published (no shard holds it live).
func (s *Snapshot) Removed(id PolygonID) bool {
	if int(id) >= s.NumPolygons() {
		return false
	}
	for _, p := range s.parts {
		if int(id) < len(p.polys) && p.polys[id] != nil {
			return false
		}
	}
	return true
}

// Covers returns the ids of all polygons covering p, exactly: candidate
// cells are refined with PIP tests (the paper's accurate join).
func (s *Snapshot) Covers(p Point) []PolygonID { return s.query(p, true) }

// CoversApprox returns polygon ids without any PIP test. With a precision
// bound of d meters, every reported polygon is within d of p; without one,
// results may include polygons whose boundary cells contain p.
func (s *Snapshot) CoversApprox(p Point) []PolygonID { return s.query(p, false) }

// query routes the probe to its shard: covering cells are disjoint and
// shard ranges contiguous, so the probe's leaf cell has exactly one owning
// shard.
func (s *Snapshot) query(p Point, exact bool) []PolygonID {
	gp := geom.Point{X: p.Lon, Y: p.Lat}
	leaf := cellid.FromPoint(gp)
	return s.parts[s.router.shardOfLeaf(leaf)].queryLeaf(gp, leaf, exact)
}

// queryLeaf is the point-query core with the leaf cell id already computed.
func (p *part) queryLeaf(gp geom.Point, leaf cellid.CellID, exact bool) []PolygonID {
	entry := p.tree.Find(leaf)
	if entry.IsFalseHit() {
		return nil
	}
	var out []PolygonID
	p.table.Visit(entry, func(r refs.Ref) {
		if r.Interior() || !exact {
			out = append(out, r.PolygonID())
			return
		}
		if p.polys[r.PolygonID()].ContainsPoint(gp) {
			out = append(out, r.PolygonID())
		}
	})
	return out
}

// CoversBatch answers many point queries in one call: out[i] holds the ids
// of the polygons covering points[i] (nil when none), identical to calling
// Covers (with opt.Exact) or CoversApprox per point, but through the batch
// probe pipeline — optionally cell-id-sorted, one trie walk per run of
// points in one index cell, and parallelized by workers claiming chunks of
// the probe stream from an atomic counter. With several shards
// the probe stream is radix-split into per-shard sub-streams (stable, so
// results scatter back to input order) and the shards' pipelines run in
// parallel, each with its share of the thread budget.
func (s *Snapshot) CoversBatch(points []Point, opt QueryOptions) [][]PolygonID {
	pts, cells, release := toProbeParallel(points, opt.Threads, opt.Exact)
	defer release()
	if len(s.parts) == 1 {
		p := s.parts[0]
		out, _ := join.RunBatchCollect(p.tree, p.table, pts, cells, p.polys, opt.internal())
		return out
	}
	order, offsets := join.PartitionByShard(cells, s.router.bounds)
	out := make([][]PolygonID, len(points))
	s.runShards(pts, cells, order, offsets, opt, out)
	return out
}

// JoinCount counts points per polygon through the batch probe pipeline:
// Counts[pid] is the number of points covered by polygon pid, honoring
// QueryOptions (exactness, sorted probing, threads). The returned CacheHits
// reports how many probes shared their run's trie walk. With several shards
// the probe-phase metrics are summed across shards; CacheHits and PIPTests
// depend on how the shards split the stream, so their values (not the
// Counts) can differ between shard counts. They do not depend on Threads.
func (s *Snapshot) JoinCount(points []Point, opt QueryOptions) JoinResult {
	if len(s.parts) == 1 {
		p := s.parts[0]
		pts, cells, release := toProbeParallel(points, opt.Threads, opt.Exact)
		res := join.RunBatchCount(p.tree, p.table, pts, cells, p.polys, opt.internal())
		release()
		return toJoinResult(res)
	}
	start := time.Now()
	pts, cells, release := toProbeParallel(points, opt.Threads, opt.Exact)
	order, offsets := join.PartitionByShard(cells, s.router.bounds)
	parts := s.runShards(pts, cells, order, offsets, opt, nil)
	release()
	merged := join.Result{Counts: make([]int64, s.NumPolygons()), Points: len(points)}
	for _, res := range parts {
		if res == nil {
			continue
		}
		for pid, c := range res.Counts {
			merged.Counts[pid] += c
		}
		merged.Matched += res.Matched
		merged.PIPTests += res.PIPTests
		merged.SolelyTrueHits += res.SolelyTrueHits
		merged.CacheHits += res.CacheHits
	}
	merged.Duration = time.Since(start)
	return toJoinResult(merged)
}

// runShards fans a partitioned probe stream out to per-shard workers. The
// sub-streams are gathered into contiguous buffers (the batch pipeline
// probes slices), each participating shard joins its sub-stream with an
// equal share of the thread budget, and collect-mode results scatter back
// through the partition's order into out (indexed by input position).
// Returns the per-shard results, indexed by shard, nil for shards with no
// probes.
func (s *Snapshot) runShards(pts []geom.Point, cells []cellid.CellID, order []int32, offsets []int, opt QueryOptions, out [][]PolygonID) []*join.Result {
	active := 0
	for si := range s.parts {
		if offsets[si+1] > offsets[si] {
			active++
		}
	}
	results := make([]*join.Result, len(s.parts))
	if active == 0 {
		return results
	}
	threads := opt.Threads
	if threads <= 0 {
		threads = runtime.GOMAXPROCS(0)
	}
	subOpt := opt
	if subOpt.Threads = threads / active; subOpt.Threads < 1 {
		subOpt.Threads = 1
	}
	gcells := make([]cellid.CellID, len(order))
	var gpts []geom.Point
	if pts != nil {
		gpts = make([]geom.Point, len(order))
	}
	for k, idx := range order {
		gcells[k] = cells[idx]
		if gpts != nil {
			gpts[k] = pts[idx]
		}
	}
	var wg sync.WaitGroup
	for si := range s.parts {
		lo, hi := offsets[si], offsets[si+1]
		if lo == hi {
			continue
		}
		wg.Add(1)
		//act:norecover pure-compute join fan-out over frozen shard snapshots; a panic is a broken invariant with no state to contain
		go func(si, lo, hi int) {
			defer wg.Done()
			p := s.parts[si]
			var sp []geom.Point
			if gpts != nil {
				sp = gpts[lo:hi]
			}
			if out != nil {
				sub, res := join.RunBatchCollect(p.tree, p.table, sp, gcells[lo:hi], p.polys, subOpt.internal())
				for k, ids := range sub {
					if len(ids) > 0 {
						out[order[lo+k]] = ids
					}
				}
				results[si] = &res
			} else {
				res := join.RunBatchCount(p.tree, p.table, sp, gcells[lo:hi], p.polys, subOpt.internal())
				results[si] = &res
			}
		}(si, lo, hi)
	}
	wg.Wait()
	return results
}

// mergedPolys merges the shards' nil-masked polygon slices into the global
// one: each live polygon is present (identically) in every owner shard, so
// the first non-nil slot wins; slots nil everywhere are tombstones in every
// shard and stay tombstones.
func (s *Snapshot) mergedPolys() []*geom.Polygon {
	if len(s.parts) == 1 {
		return s.parts[0].polys
	}
	out := make([]*geom.Polygon, s.NumPolygons())
	for _, p := range s.parts {
		for i, gp := range p.polys {
			if gp != nil && out[i] == nil {
				out[i] = gp
			}
		}
	}
	return out
}

// JoinResult summarizes a bulk join.
type JoinResult struct {
	// Counts[pid] is the number of points covered by polygon pid.
	Counts []int64
	// PIPTests is the number of geometric refinements performed (0 in
	// approximate mode).
	PIPTests int64
	// STHPercent is the share of points answered without any candidate hit
	// (the paper's "solely true hits" metric).
	STHPercent float64
	// CacheHits is the number of probes that shared their run's trie walk
	// in the batch pipeline instead of walking the trie themselves.
	CacheHits int64
	// Duration is the probe-phase wall time.
	Duration time.Duration
	// ThroughputMpts is points per second in millions.
	ThroughputMpts float64
}

// Stats describes a published snapshot. Sizes are summed across shards,
// NumPolygons is the id-slot count, and the configuration fields are shared
// by every shard.
type Stats struct {
	NumPolygons int
	NumCells    int // super covering cells
	// NumTrieNodes counts live trie nodes: nodes a probe can reach. On
	// snapshots produced by incremental publishes the shared arena also
	// holds nodes orphaned by patching — reported in OrphanTrieNodes and
	// included in TrieSizeBytes — which a compaction (background by
	// default, or the inline full rebuild) leaves behind with the old
	// arena: post-compaction snapshots report zero orphans again, while
	// earlier snapshots keep the arena they were built over.
	NumTrieNodes    int
	OrphanTrieNodes int
	TrieSizeBytes   int // node arena, including orphaned nodes
	TableSizeBytes  int // shared lookup table
	Granularity     int // quadtree levels per radix level (δ)
	PrecisionLevel  int // refinement level, 0 when exact-only
}

// Stats returns structural statistics of the snapshot.
func (s *Snapshot) Stats() Stats {
	var st Stats
	for _, p := range s.parts {
		st.NumCells += p.cells.Len()
		st.NumTrieNodes += p.tree.NumNodes()
		st.OrphanTrieNodes += p.tree.OrphanNodes()
		st.TrieSizeBytes += p.tree.SizeBytes()
		st.TableSizeBytes += p.table.SizeBytes()
	}
	st.NumPolygons = s.NumPolygons()
	st.Granularity = s.parts[0].opt.delta
	st.PrecisionLevel = s.parts[0].precisionLevel
	return st
}
