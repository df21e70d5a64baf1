// Package join implements the paper's two point-polygon join algorithms
// (Listing 3): an index nested loop join over a cell-id index, in an
// approximate variant that treats candidate hits as results (valid under
// the index's precision bound) and an exact variant that refines candidate
// hits with PIP tests. It also provides the filter-and-refine competitor
// joins (R-tree, shape index) behind the same counting interface.
//
// As in the paper's evaluation, joins count points per polygon instead of
// materializing pairs; thread-local counters avoid contention and the probe
// phase is parallelized with workers fetching batches of 16 points via an
// atomic counter (Section 3.4).
package join

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"actjoin/internal/cellid"
	"actjoin/internal/cellindex"
	"actjoin/internal/geom"
	"actjoin/internal/refs"
	"actjoin/internal/rtree"
	"actjoin/internal/shapeindex"
)

// Mode selects the join variant of Listing 3.
type Mode int

const (
	// Approximate treats candidate hits as results (the __APPROX branch).
	Approximate Mode = iota
	// Exact refines candidate hits with PIP tests.
	Exact
)

// batchSize is the number of points a worker claims per atomic fetch
// (Section 3.4: "threads fetch batches of 16 tuples at a time").
const batchSize = 16

// Options configure a join run.
type Options struct {
	Mode Mode
	// Threads is the worker count; 0 or 1 runs single-threaded.
	Threads int
}

// Result is the output and cost profile of a join.
type Result struct {
	Counts []int64 // points per polygon
	Points int     // points probed

	Matched        int64 // points with at least one result pair
	PIPTests       int64 // refinement tests performed (exact mode)
	SolelyTrueHits int64 // points that never saw a candidate hit (paper's STH)
	CacheHits      int64 // probes that shared their run's trie walk (batch path)

	Duration time.Duration
}

// ThroughputMpts returns probe throughput in million points per second.
func (r Result) ThroughputMpts() float64 {
	if r.Duration <= 0 {
		return 0
	}
	return float64(r.Points) / r.Duration.Seconds() / 1e6
}

// STHPercent returns the solely-true-hit percentage (Table 7).
func (r Result) STHPercent() float64 {
	if r.Points == 0 {
		return 0
	}
	return 100 * float64(r.SolelyTrueHits) / float64(r.Points)
}

// local is a worker's private accumulator.
type local struct {
	counts   []int64
	matched  int64
	pipTests int64
	sth      int64
}

// parallelRun drives body over [0, n) with the paper's batched atomic
// cursor, merging per-worker accumulators into the result.
func parallelRun(n, numPolys, threads int, body func(i int, l *local)) Result {
	if threads <= 0 {
		threads = 1
	}
	if threads > runtime.GOMAXPROCS(0)*4 {
		// Allow oversubscription (the paper uses hyperthreads) but keep it
		// sane.
		threads = runtime.GOMAXPROCS(0) * 4
	}
	res := Result{Counts: make([]int64, numPolys), Points: n}

	start := time.Now()
	if threads == 1 {
		l := &local{counts: res.Counts}
		for i := 0; i < n; i++ {
			body(i, l)
		}
		res.Matched = l.matched
		res.PIPTests = l.pipTests
		res.SolelyTrueHits = l.sth
		res.Duration = time.Since(start)
		return res
	}

	var cursor atomic.Int64
	var wg sync.WaitGroup
	locals := make([]*local, threads)
	for w := 0; w < threads; w++ {
		locals[w] = &local{counts: make([]int64, numPolys)}
		wg.Add(1)
		//act:norecover pure-compute join worker over frozen state; a panic is a broken invariant with no state to contain
		go func(l *local) {
			defer wg.Done()
			for {
				begin := int(cursor.Add(batchSize)) - batchSize
				if begin >= n {
					return
				}
				end := begin + batchSize
				if end > n {
					end = n
				}
				for i := begin; i < end; i++ {
					body(i, l)
				}
			}
		}(locals[w])
	}
	wg.Wait()
	res.Duration = time.Since(start)

	for _, l := range locals {
		for i, c := range l.counts {
			res.Counts[i] += c
		}
		res.Matched += l.matched
		res.PIPTests += l.pipTests
		res.SolelyTrueHits += l.sth
	}
	return res
}

// Run executes the index nested loop join of Listing 3 against any cell-id
// index (ACT, B-tree, sorted vector). cells must be the leaf cell ids of
// pts. polys sizes the per-polygon counters and provides the geometry for
// the refinement PIP tests; in Approximate mode the geometry is never
// touched.
func Run(idx cellindex.Index, table *refs.Table, pts []geom.Point, cells []cellid.CellID, polys []*geom.Polygon, opt Options) Result {
	exact := opt.Mode == Exact
	probe := func(i int, l *local) {
		entry := idx.Find(cells[i])
		if entry.IsFalseHit() {
			l.sth++ // no candidate encountered, refinement skipped
			return
		}
		hadMatch := false
		hadCandidate := false
		handle := func(r refs.Ref) {
			pid := r.PolygonID()
			if r.Interior() {
				l.counts[pid]++
				hadMatch = true
				return
			}
			hadCandidate = true
			if !exact {
				// Approximate: treat the candidate as a hit; the index's
				// precision bound limits the false-positive distance.
				l.counts[pid]++
				hadMatch = true
				return
			}
			l.pipTests++
			if polys[pid].ContainsPoint(pts[i]) {
				l.counts[pid]++
				hadMatch = true
			}
		}
		switch entry.Tag() {
		case refs.TagOneRef:
			handle(entry.Ref1())
		case refs.TagTwoRefs:
			handle(entry.Ref1())
			handle(entry.Ref2())
		default:
			table.Visit(entry, handle)
		}
		if hadMatch {
			l.matched++
		}
		if !hadCandidate {
			l.sth++
		}
	}
	return parallelRun(len(pts), len(polys), opt.Threads, probe)
}

// RunRTree executes the classical filter-and-refine join: probe the R-tree
// on polygon MBRs for candidates, then refine every candidate with a PIP
// test. Always exact.
func RunRTree(rt *rtree.Tree, pts []geom.Point, polys []*geom.Polygon, opt Options) Result {
	probe := func(i int, l *local) {
		p := pts[i]
		hadMatch := false
		hadCandidate := false
		rt.SearchPoint(p, func(pid uint32) {
			hadCandidate = true
			l.pipTests++
			if polys[pid].ContainsPoint(p) {
				l.counts[pid]++
				hadMatch = true
			}
		})
		if hadMatch {
			l.matched++
		}
		if !hadCandidate {
			l.sth++
		}
	}
	return parallelRun(len(pts), len(polys), opt.Threads, probe)
}

// RunShapeIndex executes the S2ShapeIndex-style join: exact containment via
// cell-restricted edge tests, with SI's own true-hit filtering.
func RunShapeIndex(si *shapeindex.Index, pts []geom.Point, cells []cellid.CellID, polys []*geom.Polygon, opt Options) Result {
	probe := func(i int, l *local) {
		hadMatch := false
		edgeTests, trueOnly := si.Query(cells[i], pts[i], func(pid uint32) {
			l.counts[pid]++
			hadMatch = true
		})
		l.pipTests += int64(edgeTests)
		if hadMatch {
			l.matched++
		}
		if trueOnly {
			l.sth++
		}
	}
	return parallelRun(len(pts), len(polys), opt.Threads, probe)
}

// BruteForce joins by testing every point against every polygon's MBR and
// then PIP — the correctness oracle for tests and the "no index" floor.
func BruteForce(pts []geom.Point, polys []*geom.Polygon) []int64 {
	counts := make([]int64, len(polys))
	for _, p := range pts {
		for pid, poly := range polys {
			if poly.Bound().ContainsPoint(p) && poly.ContainsPoint(p) {
				counts[pid]++
			}
		}
	}
	return counts
}
