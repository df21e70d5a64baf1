package main

// This file is the benchmark's only contact with the engine: every call into
// actjoin and its internal packages is made here. The workloads see points,
// polygons, a store, pinned views and the layer mirror, so a change to the
// engine's API is absorbed by this file alone.

import (
	"cmp"
	"fmt"
	"slices"
	"sync"
	"time"

	"actjoin"
	"actjoin/internal/act"
	"actjoin/internal/cellid"
	"actjoin/internal/cellindex"
	"actjoin/internal/cover"
	"actjoin/internal/dataset"
	"actjoin/internal/geom"
	"actjoin/internal/join"
	"actjoin/internal/refs"
	"actjoin/internal/supercover"
)

type point = actjoin.Point

type polygon = actjoin.Polygon

// polySet is one generated polygon set, in the public form the engine takes
// and in the geometry form the oracle and the mirror take.
type polySet struct {
	public []polygon
	geoms  []*geom.Polygon
	bound  geom.Rect
}

// nycNeighborhoods generates the NYC neighborhood stand-in: 36 polygons at
// the tiny scale, 289 at the small one.
func nycNeighborhoods(small bool) polySet {
	scale := dataset.ScaleTiny
	if small {
		scale = dataset.ScaleSmall
	}
	spec := dataset.NYCNeighborhoods(scale)
	gps := spec.Generate()
	pub := make([]polygon, len(gps))
	for i, gp := range gps {
		for ri, ring := range gp.Rings {
			r := make(actjoin.Ring, len(ring))
			for j, v := range ring {
				r[j] = point{Lon: v.X, Lat: v.Y}
			}
			if ri == 0 {
				pub[i].Exterior = r
			} else {
				pub[i].Holes = append(pub[i].Holes, r)
			}
		}
	}
	return polySet{public: pub, geoms: gps, bound: spec.Bound}
}

// corners returns the south-west and north-east corners of the set's bound.
func (s polySet) corners() (lo, hi point) {
	return point{Lon: s.bound.Lo.X, Lat: s.bound.Lo.Y}, point{Lon: s.bound.Hi.X, Lat: s.bound.Hi.Y}
}

func publicPoints(g []geom.Point) []point {
	out := make([]point, len(g))
	for i, p := range g {
		out[i] = point{Lon: p.X, Lat: p.Y}
	}
	return out
}

func geomPoints(pts []point) []geom.Point {
	out := make([]geom.Point, len(pts))
	for i, p := range pts {
		out[i] = geom.Point{X: p.Lon, Y: p.Lat}
	}
	return out
}

// taxiPoints draws n clustered taxi-like points over the set's bound.
func taxiPoints(s polySet, n int, seed int64) []point {
	return publicPoints(dataset.TaxiPoints(s.bound, n, seed))
}

// uniformPoints draws n points uniformly over the set's bound.
func uniformPoints(s polySet, n int, seed int64) []point {
	return publicPoints(dataset.UniformPoints(s.bound, n, seed))
}

// square returns the axis-aligned square of the given side (in degrees) with
// its south-west corner at (lon, lat).
func square(lon, lat, side float64) polygon {
	return polygon{Exterior: actjoin.Ring{
		{Lon: lon, Lat: lat}, {Lon: lon + side, Lat: lat},
		{Lon: lon + side, Lat: lat + side}, {Lon: lon, Lat: lat + side},
	}}
}

func toGeom(p polygon) (*geom.Polygon, error) {
	ring := make(geom.Ring, len(p.Exterior))
	for i, v := range p.Exterior {
		ring[i] = geom.Point{X: v.Lon, Y: v.Lat}
	}
	return geom.NewPolygon(ring)
}

// bruteForce counts, for each polygon, the points inside it by testing every
// point against every polygon: the oracle the checks compare against.
func bruteForce(pts []point, polys []*geom.Polygon) []int64 {
	return join.BruteForce(geomPoints(pts), polys)
}

// bruteForceOne is bruteForce for one extra hole-free polygon.
func bruteForceOne(pts []point, p polygon) (int64, error) {
	gp, err := toGeom(p)
	if err != nil {
		return 0, err
	}
	return bruteForce(pts, []*geom.Polygon{gp})[0], nil
}

// store is the writer handle of the index under test: a plain Index, or a
// ShardedIndex when the workload asks for shards.
type store struct {
	ix  *actjoin.Index
	six *actjoin.ShardedIndex
}

func buildStore(s polySet, shards int, precision float64) (*store, error) {
	var opts []actjoin.Option
	if precision > 0 {
		opts = append(opts, actjoin.WithPrecision(precision))
	}
	if shards > 1 {
		six, err := actjoin.NewShardedIndex(s.public, shards, opts...)
		if err != nil {
			return nil, err
		}
		return &store{six: six}, nil
	}
	ix, err := actjoin.NewIndex(s.public, opts...)
	if err != nil {
		return nil, err
	}
	return &store{ix: ix}, nil
}

func (st *store) close() {
	if st.six != nil {
		st.six.Close()
		return
	}
	st.ix.Close()
}

func (st *store) numShards() int {
	if st.six == nil {
		return 1
	}
	return st.six.NumShards()
}

// shardOf returns the shard serving p (0 on a plain index).
func (st *store) shardOf(p point) int {
	if st.six == nil {
		return 0
	}
	return st.six.ShardOf(p)
}

func (st *store) add(p polygon) (uint32, error) {
	if st.six != nil {
		return st.six.Add(p)
	}
	return st.ix.Add(p)
}

func (st *store) remove(id uint32) error {
	if st.six != nil {
		return st.six.Remove(id)
	}
	return st.ix.Remove(id)
}

// apply removes and then adds polygons in one transaction, which publishes
// once. It returns the new ids and the interval its callback ran: what
// follows the callback inside Apply is the publish.
func (st *store) apply(removes []uint32, adds []polygon) (ids []uint32, cbStart, cbEnd time.Time, err error) {
	type tx interface {
		Add(actjoin.Polygon) (actjoin.PolygonID, error)
		Remove(actjoin.PolygonID) error
	}
	fn := func(t tx) error {
		cbStart = time.Now()
		defer func() { cbEnd = time.Now() }()
		for _, id := range removes {
			if err := t.Remove(id); err != nil {
				return err
			}
		}
		for _, p := range adds {
			id, err := t.Add(p)
			if err != nil {
				return err
			}
			ids = append(ids, id)
		}
		return nil
	}
	if st.six != nil {
		err = st.six.Apply(func(t *actjoin.ShardTx) error { return fn(t) })
	} else {
		err = st.ix.Apply(func(t *actjoin.Tx) error { return fn(t) })
	}
	return ids, cbStart, cbEnd, err
}

// footprint returns the writer-side cell count of a polygon, or -1 when the
// store cannot report it (the sharded index has no such read-out).
func (st *store) footprint(id uint32) int {
	if st.six != nil {
		return -1
	}
	return st.ix.FootprintCells(id)
}

// pubStats are the publish-path counters the per-layer metrics difference.
type pubStats struct {
	patched, full, landed, aborted int
}

func (st *store) publishStats() pubStats {
	var ps actjoin.PublishStats
	if st.six != nil {
		ps = st.six.PublishStats()
	} else {
		ps = st.ix.PublishStats()
	}
	return pubStats{
		patched: ps.Patched,
		full:    ps.Full,
		landed:  ps.CompactionsLanded,
		aborted: ps.ReconcileAborts + ps.ReplayPoisoned + ps.CompactionsFailed,
	}
}

// pin returns the currently published view. Each call starts a new batch:
// the workloads re-pin per join batch, and the writers and checks after
// each of their own publishes, which is what a live index is measured by.
//
//act:refresh
func (st *store) pin() view {
	if st.six != nil {
		return view{ss: st.six.Current()}
	}
	return view{s: st.ix.Current()}
}

// view is one pinned snapshot, held for one batch or one check.
type view struct {
	s  *actjoin.Snapshot        //act:pinned — held for the batch that pinned it
	ss *actjoin.ShardedSnapshot //act:pinned — held for the batch that pinned it
}

// query is the batch join configuration.
type query struct {
	exact   bool
	threads int
}

// joinOut is what a batch join reports.
type joinOut struct {
	counts    []int64
	pipTests  int64
	cacheHits int64
	sth       float64 // share of points that met no candidate cell
}

func (v view) joinCount(pts []point, q query) joinOut {
	opt := actjoin.QueryOptions{Exact: q.exact, Sorted: true, Threads: q.threads}
	var r actjoin.JoinResult
	if v.ss != nil {
		r = v.ss.JoinCount(pts, opt)
	} else {
		r = v.s.JoinCount(pts, opt)
	}
	return joinOut{counts: r.Counts, pipTests: r.PIPTests, cacheHits: r.CacheHits, sth: r.STHPercent / 100}
}

// pointCounts answers every point through the per-point query path (Covers,
// or CoversApprox when exact is false) and counts hits per polygon id below n:
// the reference the batch joins are checked against.
func (v view) pointCounts(pts []point, exact bool, n int) []int64 {
	counts := make([]int64, n)
	for _, p := range pts {
		var ids []actjoin.PolygonID
		switch {
		case v.ss != nil && exact:
			ids = v.ss.Covers(p)
		case v.ss != nil:
			ids = v.ss.CoversApprox(p)
		case exact:
			ids = v.s.Covers(p)
		default:
			ids = v.s.CoversApprox(p)
		}
		for _, id := range ids {
			if int(id) < n {
				counts[id]++
			}
		}
	}
	return counts
}

func (v view) removed(id uint32) bool {
	if v.ss != nil {
		return v.ss.Removed(id)
	}
	return v.s.Removed(id)
}

func (v view) numPolygons() int {
	if v.ss != nil {
		return v.ss.NumPolygons()
	}
	return v.s.NumPolygons()
}

func (v view) orphanNodes() int {
	if v.ss != nil {
		return v.ss.Stats().OrphanTrieNodes
	}
	return v.s.Stats().OrphanTrieNodes
}

// coverOptions are the engine's default per-polygon covering budgets; the
// mirror and the covering replay use the same ones.
var coverOptions = supercover.Options{
	Covering: cover.Options{MaxCells: 128},
	Interior: cover.Options{MaxCells: 256, MaxLevel: 20},
}

// coverPolygon converts p and computes its covering and interior covering,
// the per-polygon work an Add does before it touches the writer's covering.
// It returns the interval the covering took.
func coverPolygon(p polygon) (start, end time.Time, err error) {
	gp, err := toGeom(p)
	if err != nil {
		return start, end, err
	}
	start = time.Now()
	cover.Covering(gp, coverOptions.Covering)
	cover.InteriorCovering(gp, coverOptions.Interior)
	return start, time.Now(), nil
}

// mirror is an index assembled stage by stage from the engine's layers the
// way NewIndex assembles it, so that each layer can be timed from outside.
// Its join counts must equal the engine's; the checks compare them.
type mirror struct {
	tree  *act.Tree
	table *refs.Table
	polys []*geom.Polygon

	// Per-batch buffers, reused across batches by the one goroutine that
	// owns the mirror.
	cells  []cellid.CellID
	pts    []geom.Point
	order  []probe
	runs   []probeRun
	refBuf []refs.Ref
	refEnd []int
}

type probe struct {
	leaf cellid.CellID
	idx  int32
}

type probeRun struct {
	start, end int
	entry      refs.Entry
}

// buildMirror builds the mirror and returns the clock read before and after
// each stage: supercover build, refinement to the precision (an empty
// interval without one), encode, trie build.
func buildMirror(s polySet, precision float64) (*mirror, [5]time.Time) {
	var marks [5]time.Time
	marks[0] = time.Now()
	sc := supercover.Build(s.geoms, coverOptions)
	marks[1] = time.Now()
	marks[2] = marks[1]
	if precision > 0 {
		level := cellid.LevelForMaxDiagonalMeters(precision, dataset.MBR(s.geoms).Center().Y)
		sc.RefineToPrecision(s.geoms, level)
		marks[2] = time.Now()
	}
	enc := cellindex.NewEncoder()
	kvs := enc.EncodeFrozen(sc.Cells())
	marks[3] = time.Now()
	tree := act.Build(kvs, act.Delta4)
	marks[4] = time.Now()
	return &mirror{tree: tree, table: enc.Table().Freeze(), polys: s.geoms}, marks
}

// fromPoint converts a batch as the engine's JoinCount does: leaf cell ids,
// plus geometry points in exact mode, in up to q.threads chunks of at least
// 4096 points each.
func (m *mirror) fromPoint(pts []point, q query) {
	n := len(pts)
	m.cells = slices.Grow(m.cells[:0], n)[:n]
	if q.exact {
		m.pts = slices.Grow(m.pts[:0], n)[:n]
	} else {
		m.pts = nil
	}
	convert := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			gp := geom.Point{X: pts[i].Lon, Y: pts[i].Lat}
			if q.exact {
				m.pts[i] = gp
			}
			m.cells[i] = cellid.FromPoint(gp)
		}
	}
	threads := min(q.threads, n/4096)
	if threads <= 1 {
		convert(0, n)
		return
	}
	var wg sync.WaitGroup
	chunk := (n + threads - 1) / threads
	for lo := 0; lo < n; lo += chunk {
		hi := min(lo+chunk, n)
		wg.Add(1)
		//act:norecover pure-compute conversion over disjoint ranges; a panic fails the benchmark run, which is the report
		go func(lo, hi int) {
			defer wg.Done()
			convert(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// runBatch runs the engine's batch pipeline over the converted batch.
func (m *mirror) runBatch(q query) []int64 {
	mode := join.Approximate
	if q.exact {
		mode = join.Exact
	}
	return join.RunBatchCount(m.tree, m.table, m.pts, m.cells, m.polys, join.BatchOptions{Mode: mode, Sorted: true, Threads: q.threads}).Counts
}

// replayOut counts the work of replays.
type replayOut struct {
	runs     int64 // trie walks: one per run of points sharing an index cell
	found    int64 // walks that found a cell (not a false hit)
	depth    int64 // trie nodes visited, summed over walks
	refs     int64 // references decoded, summed over found cells
	pipTests int64
	pipTrue  int64
}

// replay walks the converted batch in cell-id order on one goroutine, one
// layer per pass, and returns the clock read before and after each pass: the
// trie walk (act.Tree.FindRange, once per run of points falling in one index
// cell), the entry decode (refs.Table.AppendRefs, once per found cell), and
// in exact mode the PIP refinement (geom.Polygon.ContainsPoint, once per
// point and candidate reference).
func (m *mirror) replay(exact bool) (out replayOut, marks [4]time.Time) {
	m.order = m.order[:0]
	for i, c := range m.cells {
		m.order = append(m.order, probe{leaf: c, idx: int32(i)})
	}
	slices.SortFunc(m.order, func(a, b probe) int { return cmp.Compare(a.leaf, b.leaf) })

	marks[0] = time.Now()
	m.runs = m.runs[:0]
	for k := 0; k < len(m.order); {
		entry, _, hi := m.tree.FindRange(m.order[k].leaf)
		end := k + 1
		for end < len(m.order) && m.order[end].leaf <= hi {
			end++
		}
		m.runs = append(m.runs, probeRun{start: k, end: end, entry: entry})
		k = end
	}
	marks[1] = time.Now()
	m.refBuf, m.refEnd = m.refBuf[:0], m.refEnd[:0]
	for _, r := range m.runs {
		if !r.entry.IsFalseHit() {
			m.refBuf = m.table.AppendRefs(m.refBuf, r.entry)
		}
		m.refEnd = append(m.refEnd, len(m.refBuf))
	}
	marks[2] = time.Now()
	if exact {
		lo := 0
		for ri, r := range m.runs {
			for _, ref := range m.refBuf[lo:m.refEnd[ri]] {
				if ref.Interior() {
					continue
				}
				poly := m.polys[ref.PolygonID()]
				for _, p := range m.order[r.start:r.end] {
					out.pipTests++
					if poly.ContainsPoint(m.pts[p.idx]) {
						out.pipTrue++
					}
				}
			}
			lo = m.refEnd[ri]
		}
	}
	marks[3] = time.Now()

	out.runs = int64(len(m.runs))
	out.refs = int64(len(m.refBuf))
	for _, r := range m.runs {
		if !r.entry.IsFalseHit() {
			out.found++
		}
		_, d := m.tree.FindDepth(m.order[r.start].leaf)
		out.depth += int64(d)
	}
	return out, marks
}

// checkMirror reports the first polygon id below n whose mirror count differs
// from the engine's.
func checkMirror(mirrorCounts, engineCounts []int64, n int) error {
	for id := 0; id < n; id++ {
		if mirrorCounts[id] != engineCounts[id] {
			return fmt.Errorf("mirror counts polygon %d as %d, the engine as %d", id, mirrorCounts[id], engineCounts[id])
		}
	}
	return nil
}
