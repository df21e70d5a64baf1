// Batch probe pipeline: the throughput-oriented variant of the index nested
// loop join. Three ideas stack on top of Run's probe loop, following the
// parallel-join literature (Tsitsigkos et al., "Parallel In-Memory
// Evaluation of Spatial Joins"; Kipf et al., "Adaptive Geospatial Joins for
// Modern Hardware"):
//
//  1. The probe stream is optionally partial-sorted by leaf cell id (a
//     min-offset radix partition on the top bits of the key range the
//     index can distinguish, split across workers but stable, so the
//     schedule is the same at every thread count), so consecutive probes
//     walk the same trie path and touch the same node cache lines.
//  2. A run of consecutive probes falling into the validity range of one
//     index cell (cellindex.RangeIndex) — or of one false-hit gap — costs
//     one trie walk and one entry decode for the whole run. That range may
//     be one quad wider than the trie slot the walk ended on, so a cell
//     stored as four key-extension replicas is one run, not four; a cell
//     extended further is one run per quad of replicas. Runs are
//     maximal only for index cells that span whole sort buckets: keys
//     inside one 2^bucketShift bucket stay unordered, so the points of a
//     cell finer than a bucket can be interleaved with their neighbours'
//     and break into several runs.
//  3. Workers claim contiguous chunks of chunkSize schedule positions via
//     an atomic counter (the paper's Section 3.4 scheme at a coarser
//     grain) and accumulate into private buffers, merged once at the end.
//     A run cut at a chunk edge costs one extra walk; the cuts are the
//     same at every thread count, and so is every Result field.
package join

import (
	"math/bits"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"actjoin/internal/cellid"
	"actjoin/internal/cellindex"
	"actjoin/internal/geom"
	"actjoin/internal/refs"
)

// BatchOptions configure the batch probe pipeline.
type BatchOptions struct {
	Mode Mode
	// Sorted probes the points in ascending cell-id order (results are
	// still reported in input order). Sorting costs a couple of O(n)
	// counting passes but maximizes run lengths and trie locality;
	// unsorted streams still share a walk among consecutive points of
	// one index cell.
	Sorted bool
	// Threads is the worker count; 0 uses all CPUs, 1 runs single-threaded.
	Threads int
}

// chunkSize is the number of schedule positions a worker claims per atomic
// fetch: long enough that few runs are cut at a chunk edge, short enough
// that workers still balance a skewed stream.
const chunkSize = 4096

// leveler is implemented by indexes that know their deepest indexed cell
// level. Leaf-id bits below that level cannot change a probe's answer, so
// the sort ignores them — fewer radix passes, identical locality.
type leveler interface {
	MaxCellLevel() int
}

// batchWorker is the per-worker state: the shared accumulator of the
// single-point path plus the run counter and the result arena.
type batchWorker struct {
	local
	cacheHits int64

	ids     []uint32   // result arena (collect mode)
	scratch []refs.Ref // decoded entry of the current run

	// Workers are allocated back to back and write their fields on every
	// run; a cache line of padding keeps one worker's writes from evicting
	// the line another worker reads.
	_ [64]byte
}

// RunBatchCount is Run through the batch pipeline: per-polygon counts with
// sorted probing and run-at-a-time lookups. pts may be nil in Approximate
// mode, which never touches the geometry.
func RunBatchCount(idx cellindex.Index, table *refs.Table, pts []geom.Point, cells []cellid.CellID, polys []*geom.Polygon, opt BatchOptions) Result {
	_, res := runBatch(idx, table, pts, cells, polys, opt, false)
	return res
}

// RunBatchCollect materializes per-point results: out[i] holds the ids of
// the polygons covering the i-th point (nil when none), in the same
// reference order as the single-point query path, regardless of Sorted or
// Threads. pts may be nil in Approximate mode.
func RunBatchCollect(idx cellindex.Index, table *refs.Table, pts []geom.Point, cells []cellid.CellID, polys []*geom.Polygon, opt BatchOptions) ([][]uint32, Result) {
	return runBatch(idx, table, pts, cells, polys, opt, true)
}

// batchRun bundles the probe inputs every worker shares, so the probe loop
// can be a declared method (and carry //act: annotations) instead of a
// closure capturing half of runBatch's frame.
type batchRun struct {
	idx     cellindex.Index
	ri      cellindex.RangeIndex // idx's range interface, nil when not supported
	table   *refs.Table
	pts     []geom.Point
	cells   []cellid.CellID
	polys   []*geom.Polygon
	ord     probeOrder
	n       int
	exact   bool
	collect bool
	// out receives collect-mode results by point index. Workers publish
	// slices of their own arenas straight into it: chunks are disjoint,
	// and a growing arena leaves already-published backing arrays intact.
	out [][]uint32
	// cursor is the next unclaimed schedule position.
	cursor atomic.Int64 //act:atomic
}

func runBatch(idx cellindex.Index, table *refs.Table, pts []geom.Point, cells []cellid.CellID, polys []*geom.Polygon, opt BatchOptions, collect bool) ([][]uint32, Result) {
	n := len(cells)
	threads := opt.Threads
	if threads <= 0 {
		threads = runtime.GOMAXPROCS(0)
	}
	threads = max(1, min(threads, runtime.GOMAXPROCS(0)*4, (n+chunkSize-1)/chunkSize))

	start := time.Now()
	var ord probeOrder
	if opt.Sorted {
		// Drop the leaf-id bits below the index's deepest level: they
		// cannot move a point to a different indexed cell.
		drop := uint(0)
		if lv, ok := idx.(leveler); ok {
			drop = uint(2*(cellid.MaxLevel-lv.MaxCellLevel()) + 1)
		}
		ord = makeProbeOrder(cells, drop, min(threads, runtime.GOMAXPROCS(0)))
	}

	var out [][]uint32
	if collect {
		out = make([][]uint32, n)
	}

	ri, _ := idx.(cellindex.RangeIndex)
	b := &batchRun{
		idx: idx, ri: ri, table: table,
		pts: pts, cells: cells, polys: polys,
		ord: ord, n: n,
		exact:   opt.Mode == Exact,
		collect: collect,
		out:     out,
	}

	workers := make([]*batchWorker, threads)
	for i := range workers {
		w := &batchWorker{local: local{counts: make([]int64, len(polys))}}
		if collect {
			w.ids = make([]uint32, 0, n/threads+chunkSize)
		}
		workers[i] = w
	}
	var wg sync.WaitGroup
	for _, w := range workers[1:] {
		wg.Add(1)
		//act:norecover pure-compute probe worker over frozen state; a panic is a broken invariant with no state to contain
		go func(w *batchWorker) {
			defer wg.Done()
			b.drain(w)
		}(w)
	}
	b.drain(workers[0])
	wg.Wait()

	// Merge the per-worker buffers.
	res := Result{Counts: make([]int64, len(polys)), Points: n}
	for _, w := range workers {
		for i, c := range w.counts {
			res.Counts[i] += c
		}
		res.Matched += w.matched
		res.PIPTests += w.pipTests
		res.SolelyTrueHits += w.sth
		res.CacheHits += w.cacheHits
	}
	if ord.packed != nil {
		putScheduleBuf(ord.packed)
	}
	res.Duration = time.Since(start)
	return out, res
}

// drain claims chunks of the schedule from the shared cursor and probes
// them until none is left.
func (b *batchRun) drain(w *batchWorker) {
	for {
		lo := int(b.cursor.Add(chunkSize)) - chunkSize
		if lo >= b.n {
			return
		}
		b.probeRuns(w, lo, min(lo+chunkSize, b.n))
	}
}

// probeRuns probes schedule positions [lo, hi): it resolves each run of
// points sharing an index cell (or false-hit gap) with one walk and one
// entry decode, then bulk-applies the outcome — counts grow by the run
// length in one step. Only exact-mode candidate refs still cost per-point
// work, because their PIP tests genuinely depend on the point. Without a
// RangeIndex every point is walked.
//
//act:hotpath
func (b *batchRun) probeRuns(w *batchWorker, lo, hi int) {
	ord := &b.ord
	for k := lo; k < hi; {
		_, key := ord.at(k, b.cells)
		leaf := cellid.CellID(key<<ord.drop | 1)
		var entry refs.Entry
		runEnd := k + 1
		if b.ri != nil {
			var cellLo, cellHi cellid.CellID
			entry, cellLo, cellHi = b.ri.FindRange(leaf)
			// Keys within a sort bucket are unordered (partial sort),
			// so the scan needs both range bounds, in key space.
			loKey, hiKey := uint64(cellLo)>>ord.drop, uint64(cellHi)>>ord.drop
			for runEnd < hi {
				if _, k2 := ord.at(runEnd, b.cells); k2 < loKey || k2 > hiKey {
					break
				}
				runEnd++
			}
		} else {
			entry = b.idx.Find(leaf)
		}
		w.cacheHits += int64(runEnd - k - 1)
		runLen := int64(runEnd - k)
		if entry.IsFalseHit() {
			w.sth += runLen
			k = runEnd
			continue
		}
		w.scratch = b.table.AppendRefs(w.scratch[:0], entry)
		nCand := 0
		for _, r := range w.scratch {
			if !r.Interior() {
				nCand++
			}
		}
		if b.exact && nCand > 0 {
			// Refine per point, in entry order like the single-point path.
			for ; k < runEnd; k++ {
				i, _ := ord.at(k, b.cells)
				arenaStart := len(w.ids)
				hadMatch := false
				for _, r := range w.scratch {
					pid := r.PolygonID()
					if !r.Interior() {
						w.pipTests++
						if !b.polys[pid].ContainsPoint(b.pts[i]) {
							continue
						}
					}
					w.counts[pid]++
					hadMatch = true
					if b.collect {
						w.ids = append(w.ids, pid)
					}
				}
				if hadMatch {
					w.matched++
				}
				if b.collect && len(w.ids) > arenaStart {
					b.out[i] = w.ids[arenaStart:len(w.ids):len(w.ids)]
				}
			}
			continue
		}
		// The outcome is identical for every point of the run.
		for _, r := range w.scratch {
			w.counts[r.PolygonID()] += runLen
		}
		if len(w.scratch) > 0 {
			w.matched += runLen
		}
		if nCand == 0 {
			w.sth += runLen
		}
		if b.collect && len(w.scratch) > 0 {
			for ; k < runEnd; k++ {
				i, _ := ord.at(k, b.cells)
				arenaStart := len(w.ids)
				for _, r := range w.scratch {
					w.ids = append(w.ids, r.PolygonID())
				}
				b.out[i] = w.ids[arenaStart:len(w.ids):len(w.ids)]
			}
		}
		k = runEnd
	}
}

// maxSortDigitBits caps the radix digit width: 2^15 int32 counters (128
// KiB) stay cache-resident while city-scale key ranges (20-30 significant
// bits) finish in two passes.
const maxSortDigitBits = 15

// schedulePool recycles the sort's schedule buffers (the packed schedule,
// and sortWide's ping-pong pair). A high-traffic caller invokes
// CoversBatch/JoinCount back to back; without recycling, the transient
// schedule buffers alone double the per-call garbage and with it the GC
// mark frequency.
var schedulePool sync.Pool

func scheduleBuf(n int) []uint64 {
	if v, ok := schedulePool.Get().(*[]uint64); ok && cap(*v) >= n {
		return (*v)[:n]
	}
	return make([]uint64, n)
}

func putScheduleBuf(b []uint64) {
	schedulePool.Put(&b)
}

// probeOrder is a sorted probe schedule. Exactly one representation is set:
// packed words (the fast path — low 32 bits hold the min-offset truncated
// key, high 32 bits the point index, so the probe loop reads the schedule
// sequentially and reconstructs a probe-equivalent leaf without gathering
// from cells), a plain index permutation (wide-key fallback), or neither
// (input order, when all keys collapse to one truncated value or the
// stream is not sorted).
//
// The packed schedule is ordered on the keys' top bucketShift-excluded bits
// only (see partition.sortPacked); keys themselves keep full truncated
// resolution for exact run detection. minKey, drop and bucketShift describe
// the packed form and are zero otherwise.
type probeOrder struct {
	packed      []uint64
	perm        []uint32
	minKey      uint64
	drop        uint
	bucketShift uint // key bits below this may be unordered
}

// at returns schedule position k's point index and its key: the leaf id
// shifted right by drop, whose probe-equivalent leaf is key<<drop|1. The
// packed form reads the schedule sequentially and never gathers from
// cells; the other forms read the key from cells.
func (o *probeOrder) at(k int, cells []cellid.CellID) (int, uint64) {
	if o.packed != nil {
		p := o.packed[k]
		return int(p >> 32), uint64(uint32(p)) + o.minKey
	}
	i := k
	if o.perm != nil {
		i = int(o.perm[k])
	}
	return i, uint64(cells[i])
}

// minChunkPoints is the smallest share of the probe stream the partition
// hands to one worker: below it, starting goroutines costs more than the
// passes they split.
const minChunkPoints = 8192

// makeProbeOrder sorts the probe stream by cells[i]>>drop with a min-offset
// radix partition: only bits that actually vary across the stream cost
// work. O(n) time. Up to threads workers each take one contiguous chunk of
// cells; the schedule is the same at every thread count. Point counts must
// fit in 32 bits (a 4-billion-point probe array would not fit in memory
// anyway).
func makeProbeOrder(cells []cellid.CellID, drop uint, threads int) probeOrder {
	n := len(cells)
	if n == 0 {
		return probeOrder{}
	}
	if drop > 63 {
		drop = 63
	}
	chunks := max(1, min(threads, n/minChunkPoints))
	p := &partition{cells: cells, drop: drop, chunks: chunks, keys: make([]uint64, 2*chunks)}
	p.each((*partition).keyRange)
	minKey, maxKey := slices.Min(p.keys[:chunks]), slices.Max(p.keys[chunks:])
	keyBits := uint(bits.Len64(maxKey - minKey))
	switch {
	case keyBits == 0:
		return probeOrder{} // one distinct key: input order is sorted
	case keyBits <= 32:
		p.sortPacked(minKey, keyBits)
		return probeOrder{packed: p.out, minKey: minKey, drop: drop, bucketShift: p.shift}
	default:
		return probeOrder{perm: sortWide(cells, drop, minKey, keyBits)}
	}
}

// partition is the state of one parallel radix partition of a probe stream.
// The stream splits into chunks contiguous chunks, one per worker: chunk c
// is cells[c*n/chunks : (c+1)*n/chunks].
type partition struct {
	cells  []cellid.CellID
	drop   uint
	chunks int

	keys   []uint64 // per-chunk smallest truncated keys, then largest
	minKey uint64
	shift  uint     // key bits below this are not sorted on
	mask   uint64   // digit mask, applied after shift
	hist   []int32  // per-chunk digit counts, then scatter offsets
	out    []uint64 // the packed schedule
}

// each runs pass over every chunk, all but the last on their own
// goroutine, and returns once all have finished.
func (p *partition) each(pass func(p *partition, c, lo, hi int)) {
	n := len(p.cells)
	last := p.chunks - 1
	if last == 0 {
		pass(p, 0, 0, n)
		return
	}
	var wg sync.WaitGroup
	for c := 0; c < last; c++ {
		wg.Add(1)
		//act:norecover pure-compute partition pass over a disjoint chunk; a panic is a broken invariant with no state to contain
		go func(c int) {
			defer wg.Done()
			pass(p, c, c*n/p.chunks, (c+1)*n/p.chunks)
		}(c)
	}
	pass(p, last, last*n/p.chunks, n)
	wg.Wait()
}

// keyRange records the smallest and largest truncated key of chunk c.
func (p *partition) keyRange(c, lo, hi int) {
	minKey, maxKey := uint64(p.cells[lo])>>p.drop, uint64(p.cells[lo])>>p.drop
	for _, cell := range p.cells[lo:hi] {
		k := uint64(cell) >> p.drop
		minKey = min(minKey, k)
		maxKey = max(maxKey, k)
	}
	p.keys[c], p.keys[p.chunks+c] = minKey, maxKey
}

// histPool recycles the partition's digit histograms (up to
// 2^maxSortDigitBits int32 counters per chunk) across calls, as
// schedulePool does for the schedule.
var histPool sync.Pool

// histBuf returns n zeroed counters, recycled when the pool has enough.
func histBuf(n int) []int32 {
	if v, ok := histPool.Get().(*[]int32); ok && cap(*v) >= n {
		h := (*v)[:n]
		clear(h)
		return h
	}
	return make([]int32, n)
}

// sortPacked orders key|idx<<32 words by the top maxSortDigitBits of their
// varying key range in a single counting pass. The bits below stay
// unordered — a deliberate partial sort: an index cell at or above the
// bucket granularity still gets all its points contiguous (its key range
// spans whole buckets), so the probe loop's run detection loses nothing on
// the coarse interior cells where the long runs live, while the sort does a
// fraction of the work of a full-resolution ordering. Leaves the schedule
// in p.out and the shift below which keys are unordered in p.shift.
//
// Each chunk counts its own digits; the offsets are then summed digit by
// digit across the chunks in chunk order, so every chunk scatters its
// words, built straight from cells, behind those of the chunks before it
// in the same digit. The result is the stable serial counting sort's,
// word for word.
func (p *partition) sortPacked(minKey uint64, keyBits uint) {
	p.minKey = minKey
	if keyBits > maxSortDigitBits {
		p.shift = keyBits - maxSortDigitBits
	}
	p.mask = 1<<(keyBits-p.shift) - 1
	digits := int(p.mask + 1)
	p.hist = histBuf(p.chunks * digits)
	p.each((*partition).count)
	sum := int32(0)
	for d := 0; d < digits; d++ {
		for i := d; i < len(p.hist); i += digits {
			cnt := p.hist[i]
			p.hist[i] = sum
			sum += cnt
		}
	}
	p.out = scheduleBuf(len(p.cells))
	p.each((*partition).scatter)
	hist := p.hist // pool the slice alone, not the whole partition
	histPool.Put(&hist)
}

// digits returns chunk c's slice of the histogram.
func (p *partition) digits(c int) []int32 {
	d := int(p.mask + 1)
	return p.hist[c*d : (c+1)*d]
}

// count tallies the digits of chunk c.
func (p *partition) count(c, lo, hi int) {
	h := p.digits(c)
	for _, cell := range p.cells[lo:hi] {
		h[(uint64(cell)>>p.drop-p.minKey)>>p.shift&p.mask]++
	}
}

// scatter writes the packed words of chunk c to their sorted positions.
func (p *partition) scatter(c, lo, hi int) {
	h := p.digits(c)
	for i, cell := range p.cells[lo:hi] {
		k := uint64(cell)>>p.drop - p.minKey
		d := k >> p.shift & p.mask
		p.out[h[d]] = k | uint64(lo+i)<<32
		h[d]++
	}
}

// sortWide is the fallback for key ranges over 32 bits: interleaved
// (key, idx) word pairs in pooled buffers, fixed 11-bit digits, returning
// an index permutation.
func sortWide(cells []cellid.CellID, drop uint, minKey uint64, keyBits uint) []uint32 {
	const digit = 11
	n := len(cells)
	a := scheduleBuf(2 * n)
	for i, c := range cells {
		a[2*i] = uint64(c)>>drop - minKey
		a[2*i+1] = uint64(i)
	}
	b := scheduleBuf(2 * n)
	var counts [1 << digit]int32
	const mask = uint64(1<<digit - 1)
	for shift := uint(0); shift < keyBits; shift += digit {
		for i := range counts {
			counts[i] = 0
		}
		for i := 0; i < 2*n; i += 2 {
			counts[(a[i]>>shift)&mask]++
		}
		sum := int32(0)
		for i := range counts {
			c := counts[i]
			counts[i] = sum
			sum += c
		}
		for i := 0; i < 2*n; i += 2 {
			d := (a[i] >> shift) & mask
			j := 2 * counts[d]
			b[j] = a[i]
			b[j+1] = a[i+1]
			counts[d]++
		}
		a, b = b, a
	}
	out := make([]uint32, n)
	for i := range out {
		out[i] = uint32(a[2*i+1])
	}
	putScheduleBuf(a)
	putScheduleBuf(b)
	return out
}
