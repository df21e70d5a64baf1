package actjoin

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"actjoin/internal/act"
	"actjoin/internal/cellid"
	"actjoin/internal/cover"
	"actjoin/internal/geom"
	"actjoin/internal/join"
	"actjoin/internal/refs"
	"actjoin/internal/supercover"
)

// Point is a geographic location in degrees.
type Point struct {
	Lon, Lat float64
}

// Ring is a closed polygon ring; the closing vertex must not be repeated.
type Ring []Point

// Polygon is an area with an exterior ring and optional holes. Rings are
// read in planar lon/lat: an edge joins its two vertices by the straight
// segment in that plane, never across the antimeridian. A ring with
// vertices at lon 179 and -179 therefore spans the long way round, through
// lon 0; split a ring that should cross the antimeridian at lon ±180.
type Polygon struct {
	Exterior Ring
	Holes    []Ring
}

// PolygonID identifies a polygon by its position in the slice passed to
// NewIndex.
type PolygonID = uint32

// MaxPolygons is the largest indexable polygon count (30-bit ids, as in the
// paper's tagged-entry encoding).
const MaxPolygons = refs.MaxPolygonID + 1

// options collect the build configuration. fullPublish, walkRemoval and
// noBgCompact have no public Option: the differential tests set them to
// force the reference path of a proven-equivalent pair (full freeze per
// publish, quadtree-walk removal, inline compaction).
type options struct {
	precisionMeters float64
	delta           int
	coveringCells   int
	interiorCells   int
	fullPublish     bool
	walkRemoval     bool
	noBgCompact     bool
}

// Option configures NewIndex and NewShardedIndex.
type Option func(*options) error

// WithPrecision enables the approximate mode with the given distance bound
// in meters: every point reported for a polygon is inside it or within
// `meters` of it, and approximate queries never run PIP tests. The paper's
// headline configuration is 4 meters. The refinement level is fixed at
// construction, at the latitude of the initial polygons' bound nearest the
// equator, where cells are widest; a later Add nearer the equator refines
// its own cells deeper.
func WithPrecision(meters float64) Option {
	return func(o *options) error {
		if meters <= 0 || math.IsNaN(meters) || math.IsInf(meters, 0) {
			return fmt.Errorf("actjoin: invalid precision %v", meters)
		}
		o.precisionMeters = meters
		return nil
	}
}

// WithGranularity sets the trie granularity δ — quadtree levels per radix
// level. Valid values are 1, 2 and 4 (ACT1/ACT2/ACT4); the default is 4,
// the paper's fastest configuration.
func WithGranularity(delta int) Option {
	return func(o *options) error {
		if delta != 1 && delta != 2 && delta != 4 {
			return fmt.Errorf("actjoin: granularity must be 1, 2 or 4, got %d", delta)
		}
		o.delta = delta
		return nil
	}
}

// WithCoveringBudget overrides the per-polygon approximation budgets (the
// paper's defaults are 128 covering cells and 256 interior cells).
func WithCoveringBudget(coveringCells, interiorCells int) Option {
	return func(o *options) error {
		if coveringCells < 4 || interiorCells < 0 {
			return fmt.Errorf("actjoin: invalid covering budget %d/%d", coveringCells, interiorCells)
		}
		o.coveringCells = coveringCells
		o.interiorCells = interiorCells
		return nil
	}
}

// buildOptions folds the option list over the package defaults.
func buildOptions(opts []Option) (options, error) {
	o := options{delta: act.Delta4, coveringCells: 128, interiorCells: 256}
	for _, fn := range opts {
		if err := fn(&o); err != nil {
			return options{}, err
		}
	}
	return o, nil
}

// coverOptions returns the per-polygon covering budgets as the coverer
// takes them.
func (o options) coverOptions() supercover.Options {
	return supercover.Options{
		Covering: cover.Options{MaxCells: o.coveringCells},
		Interior: cover.Options{MaxCells: o.interiorCells, MaxLevel: 20},
	}
}

// Index is the writer handle of a point-polygon join index. It partitions
// the covering into contiguous cell-id ranges, each owned by a shard — a
// complete engine with its own super covering, encoder, frozen part,
// writer mutex and background compactor — and publishes immutable
// Snapshots, composed from the shards' parts, that serve all queries.
// NewIndex builds one shard, which is the paper's index; NewShardedIndex
// builds more.
//
// The partitioning is the space-oriented one of Tsitsigkos et al.
// ("Two-layer Space-oriented Partitioning"): split once along the cell-id
// (Hilbert) order, then run the per-partition work with no coordination.
// Super-covering cells are disjoint, so every probe point has exactly one
// owning shard and a batch radix-splits into per-shard sub-streams (see
// join.PartitionByShard). A covering cell that would span a shard boundary
// is decomposed into its children until each piece lands in one shard —
// query-equivalent to inserting the parent, since a containment test
// against the parent and against the child holding the probe's leaf answer
// identically. At one shard the split is the identity.
//
// Concurrency contract: every method of Index is safe for concurrent use.
// Mutations rebuild the frozen structures off to the side and publish the
// composed view with one atomic pointer swap — they never block queries,
// and queries never block them. The read path (Current and the Snapshot it
// returns) takes no locks. Three lock classes are taken, always in this
// order:
//
//	regMu (reg) > wmu (commit) > one shard's mu (mu)
//
// regMu guards the polygon-id registry: the id space is global, so
// assignment and removal claims serialize here (and Apply holds it for the
// whole transaction, keeping staged ids stable). wmu is the commit lock, and
// every write of the view happens under it: single-shard mutations and a
// shard's background-compaction landing hold it shared and swap their own
// shard's slot of the view in with a compare-and-swap, so shards publish
// concurrently; multi-shard commits (Apply, Train, and a mutation whose
// polygon spans shards) hold it exclusively, build every shard's part, and
// publish them all in one store. No path ever holds two shards' mutexes at
// once, so the order is acyclic by construction.
type Index struct {
	noCopy noCopy

	// shards and router are immutable after construction; shards' own
	// state is guarded per shard by each shard's mutex.
	shards []*shard
	router shardRouter

	// view is the composed snapshot Current hands out: one part per shard,
	// written only under wmu (see the struct comment).
	//
	//act:published
	//act:atomic
	view atomic.Pointer[Snapshot]

	// wmu is the commit lock; see the struct comment for the sharing rule.
	wmu sync.RWMutex //act:lock commit

	// regMu guards the global polygon-id registry. regOwners[id] is the
	// bitmask of shards holding cells of the polygon (64 shards max), 0 for
	// removed or never-committed ids; closed marks a Close()d index.
	regMu     sync.Mutex //act:lock reg
	regOwners []uint64   //act:guarded regMu
	closed    bool       //act:guarded regMu

	opt            options // immutable after construction
	precisionLevel int     // immutable after construction
}

// MaxShards is the largest shard count NewShardedIndex accepts: owner sets
// are tracked as 64-bit masks, and the scaling a shard buys decays long
// before that.
const MaxShards = 64

// ShardedIndex is the former name of the sharded Index.
//
// Deprecated: use Index; NewShardedIndex returns one.
type ShardedIndex = Index

// ShardedSnapshot is the former name of the sharded Index's snapshot.
//
// Deprecated: use Snapshot.
type ShardedSnapshot = Snapshot

// ShardTx is the former name of the sharded Index's transaction.
//
// Deprecated: use Tx.
type ShardTx = Tx

// NewIndex builds a one-shard index over the polygons and publishes its
// first snapshot: NewShardedIndex(polygons, 1, opts...). Polygon ids are
// slice positions. The build computes per-polygon coverings, merges them
// into the super covering and freezes the Adaptive Cell Trie. Rings are
// read in planar lon/lat (see Polygon), so a ring with vertices at lon 179
// and -179 spans the long way round; it is indexed as such, not rejected.
func NewIndex(polygons []Polygon, opts ...Option) (*Index, error) {
	return NewShardedIndex(polygons, 1, opts...)
}

// NewShardedIndex builds an index over the polygons partitioned into up to
// the given number of shards, and publishes every shard's first snapshot.
// Polygon ids are slice positions; the Options apply to every shard. The
// partition bounds are chosen from the initial polygon set and fixed for
// the index's lifetime; skew in the initial covering (or split-point
// snapping) may merge ranges, so NumShards reports the effective count,
// which can be lower than requested.
//
// More shards trade the single-writer bottleneck for per-shard writers:
// mutations touching different shards commit concurrently, and batch
// probes fan out across the shards' frozen structures. Every shard count
// answers every query identically.
//
//act:exclusive
//act:publisher
func NewShardedIndex(polygons []Polygon, shards int, opts ...Option) (*Index, error) {
	if shards < 1 || shards > MaxShards {
		return nil, fmt.Errorf("actjoin: shard count must be in [1, %d], got %d", MaxShards, shards)
	}
	o, err := buildOptions(opts)
	if err != nil {
		return nil, err
	}
	if len(polygons) == 0 {
		return nil, errors.New("actjoin: no polygons")
	}
	if len(polygons) > MaxPolygons {
		return nil, fmt.Errorf("actjoin: %d polygons exceed the %d limit", len(polygons), MaxPolygons)
	}

	internal := make([]*geom.Polygon, len(polygons))
	bound := geom.EmptyRect()
	for i, p := range polygons {
		gp, err := toGeom(p)
		if err != nil {
			return nil, fmt.Errorf("actjoin: polygon %d: %w", i, err)
		}
		internal[i] = gp
		bound = bound.Union(gp.Bound())
	}
	covs, ints := supercover.Coverings(internal, o.coverOptions())
	router := buildShardRouter(covs, ints, shards)
	ns := router.numShards()

	// Route every polygon's cells to their owning shards and record the
	// owner masks for the registry.
	rcovs := make([][][]cellid.CellID, len(internal))
	rints := make([][][]cellid.CellID, len(internal))
	masks := make([]uint64, len(internal))
	for i := range internal {
		rcovs[i] = router.route(covs[i])
		rints[i] = router.route(ints[i])
		for si := 0; si < ns; si++ {
			if len(rcovs[i][si]) > 0 || len(rints[i][si]) > 0 {
				masks[i] |= 1 << uint(si)
			}
		}
		if masks[i] == 0 {
			// Degenerate covering (should not happen for a valid polygon):
			// host the polygon in the shard owning its bound center so the
			// id stays removable and serializable.
			si := router.shardOfLeaf(cellid.FromPoint(internal[i].Bound().Center()))
			masks[i] = 1 << uint(si)
		}
	}

	precisionLevel := 0
	if o.precisionMeters > 0 {
		precisionLevel = cellid.LevelForMaxDiagonalMeters(o.precisionMeters, equatorNearestLat(bound))
	}

	ix := &Index{
		shards:         make([]*shard, ns),
		router:         router,
		opt:            o,
		precisionLevel: precisionLevel,
		regOwners:      masks,
	}
	parts := make([]*part, ns)
	for si := range ix.shards {
		sc := supercover.New()
		sc.SetWalkRemoval(o.walkRemoval)
		// The paper's merge order — every covering in polygon order, then
		// every interior — so each shard's covering is exactly the
		// restriction of the one-shard covering to its range, and the
		// concatenated shards serialize byte-identically to it.
		for i := range internal {
			insertCells(sc, rcovs[i][si], refs.MakeRef(PolygonID(i), false))
		}
		for i := range internal {
			insertCells(sc, rints[i][si], refs.MakeRef(PolygonID(i), true))
		}
		// The shard's polygon slice is nil-masked: only owners are set, so
		// removal routes by mask and the composed view merges slices by
		// first non-nil slot. Refinement only dereferences polygons its
		// cells reference, which are owners by construction.
		polys := make([]*geom.Polygon, len(internal))
		for i := range internal {
			if masks[i]&(1<<uint(si)) != 0 {
				polys[i] = internal[i]
			}
		}
		if precisionLevel > 0 {
			sc.RefineToPrecision(polys, precisionLevel)
		}
		sh := &shard{ix: ix, slot: si, polys: polys, sc: sc, opt: o, precisionLevel: precisionLevel}
		if err := sh.publish(); err != nil {
			return nil, err
		}
		ix.shards[si] = sh
		parts[si] = sh.cur
	}
	ix.view.Store(&Snapshot{parts: parts, router: router})
	return ix, nil
}

// vertexInRange is the vertex rule every polygon obeys on its way into an
// index, from NewIndex and Add (toGeom) and from ReadIndexFrom alike: lon
// in [-180, 180] and lat in [-90, 90]. NaN and the infinities fail it.
func vertexInRange(lon, lat float64) bool {
	return lon >= -180 && lon <= 180 && lat >= -90 && lat <= 90
}

func toGeom(p Polygon) (*geom.Polygon, error) {
	rings := make([]geom.Ring, 0, 1+len(p.Holes))
	conv := func(r Ring) (geom.Ring, error) {
		out := make(geom.Ring, len(r))
		for i, v := range r {
			if !vertexInRange(v.Lon, v.Lat) {
				return nil, fmt.Errorf("vertex %d out of range: (%v, %v)", i, v.Lon, v.Lat)
			}
			out[i] = geom.Point{X: v.Lon, Y: v.Lat}
		}
		return out, nil
	}
	ext, err := conv(p.Exterior)
	if err != nil {
		return nil, err
	}
	rings = append(rings, ext)
	for _, h := range p.Holes {
		hr, err := conv(h)
		if err != nil {
			return nil, err
		}
		rings = append(rings, hr)
	}
	return geom.NewPolygon(rings...)
}

// Current returns the most recently published snapshot, safe to call from
// any goroutine at any rate: one atomic load at every shard count. The
// snapshot is immutable — hold it for as long as one consistent view is
// needed, and call Current again whenever a fresher one is wanted.
func (ix *Index) Current() *Snapshot { return ix.view.Load() }

// NumShards returns the effective shard count (possibly lower than
// requested; see NewShardedIndex).
func (ix *Index) NumShards() int { return len(ix.shards) }

// Precision returns the configured precision bound in meters, or 0 when the
// index is exact-only.
func (ix *Index) Precision() float64 { return ix.opt.precisionMeters }

// ShardOf returns the index (0 ≤ i < NumShards) of the shard whose key range
// holds p — the failure domain a probe of p is served by and the slot its
// state is reported under in Health().Shards. The routing is a property of
// the immutable split, so the answer never changes over the index's lifetime.
func (ix *Index) ShardOf(p Point) int {
	return ix.router.shardOfLeaf(cellid.FromPoint(geom.Point{X: p.Lon, Y: p.Lat}))
}

// probeBufs recycles the per-call conversion arrays. They live only for the
// duration of one batch call (join results never reference them), and at
// high call rates their allocation volume alone would drive the GC mark
// frequency up.
type probeBufs struct {
	pts   []geom.Point
	cells []cellid.CellID
}

var probeBufPool sync.Pool

// toProbeParallel is the probe-input conversion chunked across workers —
// the cell conversion is a pure per-point Hilbert encoding and dominates
// batch latency at high point counts. Approximate-mode joins never touch
// the geometry, so the internal point array is skipped entirely (needPts
// false). release returns the buffers to the pool; call it once no join is
// using them.
func toProbeParallel(points []Point, threads int, needPts bool) ([]geom.Point, []cellid.CellID, func()) {
	n := len(points)
	if threads <= 0 {
		threads = runtime.GOMAXPROCS(0)
	}
	if chunks := n / 4096; threads > chunks {
		threads = chunks // conversion is ~20ns/point; don't spawn for less
	}
	bufs, _ := probeBufPool.Get().(*probeBufs)
	if bufs == nil {
		bufs = &probeBufs{}
	}
	var pts []geom.Point
	if needPts {
		if cap(bufs.pts) >= n {
			pts = bufs.pts[:n]
		} else {
			pts = make([]geom.Point, n)
			bufs.pts = pts
		}
	}
	var cells []cellid.CellID
	if cap(bufs.cells) >= n {
		cells = bufs.cells[:n]
	} else {
		cells = make([]cellid.CellID, n)
		bufs.cells = cells
	}
	release := func() { probeBufPool.Put(bufs) }
	convert := func(begin, end int) {
		var sub []geom.Point
		if needPts {
			sub = pts[begin:end]
		}
		toCells(cells[begin:end], sub, points[begin:end])
	}
	if threads <= 1 {
		convert(0, n)
		return pts, cells, release
	}
	var wg sync.WaitGroup
	chunk := (n + threads - 1) / threads
	for begin := 0; begin < n; begin += chunk {
		end := begin + chunk
		if end > n {
			end = n
		}
		wg.Add(1)
		//act:norecover pure-compute conversion over disjoint caller-owned ranges; a panic is a broken invariant with no state to contain
		go func(b, e int) {
			defer wg.Done()
			convert(b, e)
		}(begin, end)
	}
	wg.Wait()
	return pts, cells, release
}

// toCells converts points to leaf cell ids through cellid's slice kernel,
// staging each chunk of geometry points in pts when the caller keeps them
// (pts non-nil, as long as points) and in a stack buffer otherwise.
func toCells(cells []cellid.CellID, pts []geom.Point, points []Point) {
	var buf [256]geom.Point
	for lo := 0; lo < len(points); lo += len(buf) {
		hi := min(lo+len(buf), len(points))
		stage := buf[:hi-lo]
		if pts != nil {
			stage = pts[lo:hi]
		}
		for k := range stage {
			stage[k] = geom.Point{X: points[lo+k].Lon, Y: points[lo+k].Lat}
		}
		cellid.FromPoints(cells[lo:hi], stage)
	}
}

func toJoinResult(res join.Result) JoinResult {
	return JoinResult{
		Counts:         res.Counts,
		PIPTests:       res.PIPTests,
		STHPercent:     res.STHPercent(),
		CacheHits:      res.CacheHits,
		Duration:       res.Duration,
		ThroughputMpts: res.ThroughputMpts(),
	}
}
