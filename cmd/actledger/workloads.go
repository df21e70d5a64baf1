package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"time"
)

// workload is one named set of inputs and load.
type workload struct {
	name string
	run  func(r *runner)
}

// workloads lists the benchmark's workloads in run order. Why each exists is
// recorded in BENCHMARK.json and README.md.
var workloads = []workload{
	{"join-taxi", runJoinTaxi},
	{"join-uniform-exact", runJoinUniformExact},
	{"churn", runChurn},
	{"mixed", runMixed},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// config is one run of one workload.
type config struct {
	workload string
	seed     int64
	seconds  float64 // measured phase
	trace    bool
	smoke    bool
	// corrupt falsifies one reference count of every check, so that a run
	// which still passes its checks proves them vacuous. Only tests set it.
	corrupt bool
}

// sizes are the input sizes and set-up of a run.
type sizes struct {
	pool, window int // points generated; points per join batch
	warmup       time.Duration
	builds       int     // set-ups timed; the last one is used
	precision    float64 // meters, for the workloads that set one
}

func (c config) sizes() sizes {
	if c.smoke {
		return sizes{pool: 100_000, window: 10_000, warmup: 200 * time.Millisecond, builds: 1, precision: 80}
	}
	return sizes{pool: 2_000_000, window: 100_000, warmup: 3 * time.Second, builds: 3, precision: 4}
}

// Mutation shapes: the side of an added square in degrees (about 200 m in
// NYC) and the open-loop writer's period in mixed.
const (
	squareSide    = 0.002
	writerPeriod  = 10 * time.Millisecond
	churnCycle    = 20 // every churnCycle-th churn step is a 4-square Apply
	churnPairs    = 3  // add/remove pairs in each churn step that is no Apply
	mixedCycle    = 10 // every mixedCycle-th mixed mutation is a cross-shard Apply
	joinThreads   = 2
	closingProbes = 2 // squares added and removed by the closing check
	// The measured phase runs in slices of calSlice, each scaled to the
	// reference host speed by its own probes (see calibrate.go).
	calSlice = 2 * time.Second
)

// tally counts one goroutine's attempted operations and failed ones, calls
// and checks alike, keeping the first few failure messages.
type tally struct {
	attempted, failed int
	failures          []string
}

func (t *tally) check(ok bool, format string, args ...any) {
	t.attempted++
	if ok {
		return
	}
	t.failed++
	if len(t.failures) < 5 {
		t.failures = append(t.failures, fmt.Sprintf(format, args...))
	}
}

func (t *tally) call(err error, what string) {
	t.check(err == nil, "%s: %v", what, err)
}

func (t *tally) merge(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	for _, f := range o.failures {
		if len(t.failures) < 5 {
			t.failures = append(t.failures, f)
		}
	}
}

// samples are the latencies of one loop's measured ops, as measured (lat,
// elapsed) and at the reference host speed (norm, normElapsed).
type samples struct {
	lat, norm   []time.Duration
	late        []time.Duration // open loop: how late each op started
	items       int64           // points joined or publishes made
	elapsed     time.Duration   // from the phase start to the last op's end
	normElapsed time.Duration
}

func (s *samples) add(d time.Duration, items int) {
	s.lat = append(s.lat, d)
	s.items += int64(items)
}

// merge appends one slice of the measured phase, taken at host speed factor
// f, to s.
func (s *samples) merge(o samples, f float64) {
	for _, d := range o.lat {
		s.norm = append(s.norm, scale(d, f))
	}
	s.lat = append(s.lat, o.lat...)
	s.late = append(s.late, o.late...)
	s.items += o.items
	s.elapsed += o.elapsed
	s.normElapsed += scale(o.elapsed, f)
}

// runner carries one run: its configuration, the store under test, the
// tracer of its main goroutine (nil when untraced) and what it measured.
type runner struct {
	cfg config
	sz  sizes
	st  *store
	tr  *tracer // the main goroutine's
	// side holds the tracers of other goroutines, merged into tr at the end.
	side []*tracer

	tally    tally
	metrics  map[string]float64
	heapBase uint64
	heapLive []float64 // bytes, sampled between slices of the measured phase
	cal      calibrator

	// Captured when the measured phase starts, for the traced deltas.
	pubBase  pubStats
	polyBase int
	gc       gcDelta
}

func newRunner(cfg config) *runner {
	r := &runner{cfg: cfg, sz: cfg.sizes(), metrics: map[string]float64{}}
	if cfg.trace {
		r.tr = newTracer(cfg.workload, time.Now())
	}
	return r
}

// corruptRef falsifies a reference when the run is asked to.
func (r *runner) corruptRef(ref []int64, points int) {
	if r.cfg.corrupt {
		ref[0] += int64(points) + 1
	}
}

// build sets the store up sz.builds times, reports the median as setup_s and
// keeps the last one. The live heap is read first, for heap_mb.
func (r *runner) build(set polySet, shards int, precision float64) *store {
	r.heapBase = liveHeap()
	var wall []float64
	var st *store
	r.cal.burst()
	for i := 0; i < r.sz.builds; i++ {
		if st != nil {
			st.close()
		}
		start := time.Now()
		var err error
		st, err = buildStore(set, shards, precision)
		if err != nil {
			panic(fmt.Sprintf("building the index: %v", err))
		}
		wall = append(wall, time.Since(start).Seconds())
		r.cal.burst()
	}
	_, median, _ := quartiles(wall)
	r.metrics["wall.setup_s"] = median
	r.metrics["setup_s"] = median * r.cal.endSlice()
	r.st = st
	return st
}

// mirror builds the layer mirror of a traced run and records its set-up
// stages as op-0 spans; an untraced run needs none.
func (r *runner) mirror(set polySet, precision float64) *mirror {
	if r.tr == nil {
		return nil
	}
	m, marks := buildMirror(set, precision)
	for i, name := range []string{spanSupercover, spanRefine, spanEncode, spanTrie} {
		r.tr.record(name, 0, spanSetup, marks[i], marks[i+1], 0)
	}
	r.tr.record(spanSetup, 0, "", marks[0], marks[4], 0)
	return m
}

// loop runs op back to back on this goroutine, first for the warm-up and
// then for the measured seconds, in slices of calSlice, timing the
// calibration kernel every probeEvery between two ops. When side is set it
// runs beside op in one more goroutine for the same window of each phase. It
// returns the measured samples of op and of side, each slice's scaled by its
// probes.
func (r *runner) loop(op func(s *samples), side func(start, end time.Time, s *samples)) (main, beside samples) {
	phase := func(d time.Duration, s, ss *samples) {
		start := time.Now()
		end := start.Add(d)
		done := make(chan struct{})
		if side != nil {
			//act:norecover the benchmark's writer; a panic fails the run, which is the report
			go func() {
				defer close(done)
				side(start, end, ss)
			}()
		} else {
			close(done)
		}
		var probed time.Duration
		next := start.Add(probeEvery)
		for time.Now().Before(end) {
			op(s)
			if now := time.Now(); now.After(next) {
				probed += r.cal.probe()
				next = now.Add(probeEvery)
			}
			s.elapsed = time.Since(start) - probed
		}
		<-done
	}
	var warm, warmSide samples
	phase(r.sz.warmup, &warm, &warmSide)
	r.cal.discard()
	r.beginMeasure()
	for left := time.Duration(r.cfg.seconds * float64(time.Second)); left > 0; left -= calSlice {
		var s, ss samples
		phase(min(left, calSlice), &s, &ss)
		f := r.cal.endSlice()
		main.merge(s, f)
		beside.merge(ss, f)
		r.sampleHeap()
	}
	r.endMeasure()
	return main, beside
}

func (r *runner) beginMeasure() {
	if r.tr != nil {
		r.tr.reset()
	}
	for _, t := range r.side {
		t.reset()
	}
	r.pubBase = r.st.publishStats()
	r.polyBase = r.st.pin().numPolygons()
	r.gc = gcDelta{start: readGC()}
}

// sampleHeap runs after each slice of the measured phase, with the load
// stopped: it collects garbage and samples the live heap for heap_mb. A
// traced run skips it, so that the collector's per-layer metrics count only
// the load's own collections.
func (r *runner) sampleHeap() {
	if r.tr != nil {
		return
	}
	runtime.GC()
	r.heapLive = append(r.heapLive, float64(markedHeap()))
}

// endMeasure reads the collector's work over the measured phase and reports
// heap_mb: the median of the live heap samples less the base. The inputs
// were generated before the first build, so the base counts them.
func (r *runner) endMeasure() {
	r.gc.finish(readGC())
	if len(r.heapLive) > 0 {
		_, live, _ := quartiles(r.heapLive)
		r.metrics["heap_mb"] = (live - float64(r.heapBase)) / (1 << 20)
	}
}

// endToEnd records the end-to-end metrics of a closed loop's samples at the
// reference host speed, their wall-clock values under "wall.", and the
// host's speed over the run.
func (r *runner) endToEnd(s samples) {
	r.metrics["throughput_per_s"] = float64(s.items) / s.normElapsed.Seconds()
	r.metrics["wall.throughput_per_s"] = float64(s.items) / s.elapsed.Seconds()
	r.latencies("", s)
	_, r.metrics["host.calibration_ms"], _ = quartiles(r.cal.all)
}

// latencies records the p50 and p99 latency of s under prefix, at the
// reference host speed and, under "wall.", as measured.
func (r *runner) latencies(prefix string, s samples) {
	r.metrics[prefix+"latency_ms_p50"] = ms(percentile(s.norm, 0.50))
	r.metrics[prefix+"latency_ms_p99"] = ms(percentile(s.norm, 0.99))
	r.metrics["wall."+prefix+"latency_ms_p50"] = ms(percentile(s.lat, 0.50))
	r.metrics["wall."+prefix+"latency_ms_p99"] = ms(percentile(s.lat, 0.99))
	r.metrics[prefix+"latency_samples"] = float64(len(s.lat))
}

// finish derives the per-layer metrics of a traced run.
func (r *runner) finish() {
	if r.tr == nil {
		return
	}
	for _, t := range r.side {
		r.tr.merge(t)
	}
	ps := r.st.publishStats()
	delta := pubStats{
		patched: ps.patched - r.pubBase.patched,
		full:    ps.full - r.pubBase.full,
		landed:  ps.landed - r.pubBase.landed,
		aborted: ps.aborted - r.pubBase.aborted,
	}
	tombstones := r.st.pin().numPolygons() - r.polyBase
	for k, v := range layerStats(r.tr, delta, tombstones, r.gc) {
		r.metrics[k] = v
	}
}

func windowsOf(pool []point, size int) [][]point {
	var ws [][]point
	for lo := 0; lo+size <= len(pool); lo += size {
		ws = append(ws, pool[lo:lo+size])
	}
	return ws
}

// traceJoin takes one join batch apart: the engine's call (already made,
// t0..t1), the same batch on the unsharded twin when there is one, the
// mirror's conversion and batch pipeline, and the single-goroutine replay of
// the trie walk, decode and PIP passes. The mirror's counts must equal the
// engine's on the n polygons it indexes.
func (r *runner) traceJoin(m *mirror, twin *store, pts []point, q query, out joinOut, t0, t1 time.Time, n int) {
	tr := r.tr
	op := tr.op()
	tr.record(spanJoin, op, spanBatch, t0, t1, 0)
	want := out.counts
	if twin != nil {
		a := time.Now()
		tw := twin.pin().joinCount(pts, q)
		tr.record(spanJoinPlain, op, spanBatch, a, time.Now(), 0)
		want = tw.counts
	}
	a := time.Now()
	m.fromPoint(pts, q)
	b := time.Now()
	got := m.runBatch(q)
	c := time.Now()
	tr.record(spanFromPoint, op, spanBatch, a, b, 0)
	tr.record(spanRunBatch, op, spanBatch, b, c, q.threads)
	err := checkMirror(got, want, n)
	r.tally.check(err == nil, "mirror: %v", err)
	rp, marks := m.replay(q.exact)
	tr.record(spanFind, op, spanRunBatch, marks[0], marks[1], 0)
	tr.record(spanDecode, op, spanRunBatch, marks[1], marks[2], 0)
	tr.record(spanPIP, op, spanRunBatch, marks[2], marks[3], 0)
	tr.record(spanBatch, op, "", t0, time.Now(), 0)
	tr.replay.add(rp)
	tr.points += int64(len(pts))
	tr.cacheHits += out.cacheHits
	tr.pipTests += out.pipTests
	tr.sthPoints += out.sth * float64(len(pts))
}

// mutate removes and adds polygons as one publish and returns the new ids.
// Untraced, a single add or remove goes through Add or Remove and anything
// larger through Apply. Traced, every mutation is an Apply, whose callback
// splits it into the mutation and the publish that follows; the coverings
// of the added polygons are then replayed to split the mutation further.
func mutate(st *store, tr *tracer, removes []uint32, adds []polygon) ([]uint32, error) {
	if tr == nil {
		switch {
		case len(removes) == 0 && len(adds) == 1:
			id, err := st.add(adds[0])
			if err != nil {
				return nil, err
			}
			return []uint32{id}, nil
		case len(removes) == 1 && len(adds) == 0:
			return nil, st.remove(removes[0])
		}
		ids, _, _, err := st.apply(removes, adds)
		if err != nil {
			return nil, err
		}
		return ids, nil
	}
	op := tr.op()
	start := time.Now()
	ids, cb0, cb1, err := st.apply(removes, adds)
	end := time.Now()
	if err != nil {
		return nil, err
	}
	tr.record(spanApply, op, spanMutation, start, end, 0)
	tr.record(spanTxMutate, op, spanApply, cb0, cb1, 0)
	tr.record(spanPublish, op, spanApply, cb1, end, 0)
	for _, p := range adds {
		a, b, err := coverPolygon(p)
		if err != nil {
			return ids, err
		}
		tr.record(spanCovering, op, spanMutation, a, b, 0)
	}
	for _, id := range ids {
		if f := st.footprint(id); f >= 0 {
			tr.footprint += int64(f)
			tr.footprintAdds++
		}
	}
	tr.orphanMax = max(tr.orphanMax, st.pin().orphanNodes())
	tr.record(spanMutation, op, "", start, time.Now(), 0)
	return ids, nil
}

// closingCheck ends every workload. An exact join over one window must equal
// the brute-force oracle on the n base polygons, and every polygon the run
// added must be removed and count no points. Then probe squares are added
// and removed one at a time: after the add the exact join must count exactly
// the window's points inside the square, after the remove the square must
// report removed. Traced runs trace the check's calls like any other.
func (r *runner) closingCheck(set polySet, window []point, m *mirror, twin *store) {
	n := len(set.public)
	want := bruteForce(window, set.geoms)
	r.corruptRef(want, len(window))
	q := query{exact: true, threads: joinThreads}

	v := r.st.pin()
	t0 := time.Now()
	out := v.joinCount(window, q)
	t1 := time.Now()
	r.tally.check(slices.Equal(out.counts[:n], want), "closing exact join differs from brute force: %v, want %v", out.counts[:n], want)
	live := 0
	for id := n; id < v.numPolygons(); id++ {
		if !v.removed(uint32(id)) || (id < len(out.counts) && out.counts[id] != 0) {
			live++
		}
	}
	r.tally.check(live == 0, "%d added polygons are still live after the run", live)
	if r.tr != nil {
		r.traceJoin(m, twin, window, q, out, t0, t1, n)
	}

	for k := 0; k < closingProbes; k++ {
		p := square(window[k].Lon-squareSide/2, window[k].Lat-squareSide/2, squareSide)
		inside, err := bruteForceOne(window, p)
		r.tally.call(err, "brute force of the probe square")
		ids, err := mutate(r.st, r.tr, nil, []polygon{p})
		r.tally.call(err, "add of the probe square")
		if err != nil {
			continue
		}
		id := ids[0]
		got := r.st.pin().joinCount(window, q).counts
		r.tally.check(int(id) < len(got) && got[id] == inside && slices.Equal(got[:n], want),
			"after adding probe square %d the exact join differs from brute force", id)
		_, err = mutate(r.st, r.tr, []uint32{id}, nil)
		r.tally.call(err, "remove of the probe square")
		r.tally.check(r.st.pin().removed(id), "probe square %d does not report removed", id)
	}
}

// runJoin is the closed-loop join workload over one window cycle: each batch
// must equal its window's counts from the per-point query path.
func runJoin(r *runner, set polySet, pool []point, precision float64, q query) {
	st := r.build(set, 1, precision)
	defer st.close()
	n := len(set.public)
	windows := windowsOf(pool, r.sz.window)
	v := st.pin()
	refs := make([][]int64, len(windows))
	for i, w := range windows {
		refs[i] = v.pointCounts(w, q.exact, n)
	}
	if q.exact {
		r.tally.check(slices.Equal(refs[0], bruteForce(windows[0], set.geoms)), "per-point reference of window 0 differs from brute force")
	}
	r.corruptRef(refs[0], len(windows[0]))
	m := r.mirror(set, precision)

	next := 0
	s, _ := r.loop(func(s *samples) {
		w := next % len(windows)
		next++
		t0 := time.Now()
		out := st.pin().joinCount(windows[w], q)
		t1 := time.Now()
		s.add(t1.Sub(t0), len(windows[w]))
		r.tally.check(slices.Equal(out.counts, refs[w]), "batch over window %d differs from its per-point reference", w)
		if r.tr != nil {
			r.traceJoin(m, nil, windows[w], q, out, t0, t1, n)
		}
	}, nil)
	r.endToEnd(s)
	r.closingCheck(set, windows[0], m, nil)
	r.finish()
}

func runJoinTaxi(r *runner) {
	set := nycNeighborhoods(false)
	runJoin(r, set, taxiPoints(set, r.sz.pool, r.cfg.seed), r.sz.precision, query{threads: joinThreads})
}

func runJoinUniformExact(r *runner) {
	set := nycNeighborhoods(!r.cfg.smoke)
	runJoin(r, set, uniformPoints(set, r.sz.pool, r.cfg.seed), 0, query{exact: true, threads: joinThreads})
}

// squares cycles through a fixed set of squares at seeded random positions
// inside a bound, per shard of the store. Adding a square refines the
// covering around it, and removing it leaves the refinement in place, so
// positions that never repeated would grow the index for as long as a run
// lasts. Cycling keeps the index's size independent of the run's length
// and speed once every position has been visited (during the warm-up).
type squares struct {
	cycle [][]polygon // per shard
	next  []int
}

const squarePositions = 64 // per shard

// newSquares draws squarePositions squares per shard of st, each with all
// four corners in its shard.
func newSquares(set polySet, st *store, seed int64) *squares {
	rng := rand.New(rand.NewSource(seed))
	lo, hi := set.corners()
	shards := st.numShards()
	q := &squares{cycle: make([][]polygon, shards), next: make([]int, shards)}
	for filled, tries := 0, 0; filled < shards*squarePositions; tries++ {
		if tries > 1000*shards*squarePositions {
			panic("no room for the churn squares in some shard")
		}
		p := square(lo.Lon+rng.Float64()*(hi.Lon-lo.Lon-squareSide), lo.Lat+rng.Float64()*(hi.Lat-lo.Lat-squareSide), squareSide)
		si := st.shardOf(p.Exterior[0])
		inside := len(q.cycle[si]) < squarePositions
		for _, c := range p.Exterior[1:] {
			inside = inside && st.shardOf(c) == si
		}
		if inside {
			q.cycle[si] = append(q.cycle[si], p)
			filled++
		}
	}
	return q
}

// in returns the next square of shard si's cycle.
func (q *squares) in(si int) polygon {
	p := q.cycle[si][q.next[si]%len(q.cycle[si])]
	q.next[si]++
	return p
}

// runChurn is the closed-loop writer: each step adds a square and removes
// it, churnPairs times over; every churnCycle-th step instead adds four
// squares in one Apply, which a step half a cycle later removes in one
// Apply. The step is the timed op. Timing each publish instead would put the
// median between two equal clusters, the adds and the cheaper removes. A
// step of one pair still fell into two clusters, pairs in slow stretches of
// up to a second and pairs outside them, in shares that changed from run to
// run, and its median jumped between them; a step of several pairs averages
// over the shorter stretches.
func runChurn(r *runner) {
	set := nycNeighborhoods(false)
	window := taxiPoints(set, r.sz.window, r.cfg.seed)
	st := r.build(set, 1, r.sz.precision)
	defer st.close()
	m := r.mirror(set, r.sz.precision)
	sq := newSquares(set, st, r.cfg.seed)

	var batch []uint32
	step := 0
	s, _ := r.loop(func(s *samples) {
		k := step
		step++
		publishes := 0
		publish := func(removes []uint32, adds []polygon) []uint32 {
			ids, err := mutate(st, r.tr, removes, adds)
			r.tally.call(err, "churn mutation")
			publishes++
			return ids
		}
		t0 := time.Now()
		switch {
		case k%churnCycle == churnCycle-1:
			batch = publish(nil, []polygon{sq.in(0), sq.in(0), sq.in(0), sq.in(0)})
		case k%churnCycle == churnCycle/2-1 && batch != nil:
			publish(batch, nil)
			batch = nil
		default:
			for i := 0; i < churnPairs; i++ {
				if ids := publish(nil, []polygon{sq.in(0)}); len(ids) == 1 {
					publish(ids, nil)
				}
			}
		}
		s.add(time.Since(t0), publishes)
	}, nil)
	if batch != nil {
		_, err := mutate(st, nil, batch, nil)
		r.tally.call(err, "churn cleanup")
	}
	r.endToEnd(s)
	r.closingCheck(set, window, m, nil)
	r.finish()
}

// mixedWriter is mixed's open-loop writer: shard-local Add/Remove pairs,
// with every mixedCycle-th mutation a cross-shard Apply that removes the
// previous cross-shard pair and adds a new one, a square in each shard.
type mixedWriter struct {
	st    *store
	sq    *squares
	tr    *tracer
	tally tally
	k     int
	local []uint32 // the shard-local square awaiting its remove
	cross []uint32 // the cross-shard pair awaiting the next cross Apply
}

func (w *mixedWriter) step() {
	k := w.k
	w.k++
	var err error
	switch {
	case k%mixedCycle == mixedCycle-1:
		w.cross, err = mutate(w.st, w.tr, w.cross, []polygon{w.sq.in(0), w.sq.in(w.st.numShards() - 1)})
	case w.local != nil:
		_, err = mutate(w.st, w.tr, w.local, nil)
		w.local = nil
	default:
		w.local, err = mutate(w.st, w.tr, nil, []polygon{w.sq.in((k / 2) % w.st.numShards())})
	}
	w.tally.call(err, "mixed mutation")
}

// run issues one mutation every writerPeriod from start until end, timing
// each from when it was due.
func (w *mixedWriter) run(start, end time.Time, s *samples) {
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * writerPeriod)
		if !due.Before(end) {
			return
		}
		time.Sleep(time.Until(due))
		began := time.Now()
		w.step()
		done := time.Now()
		s.add(done.Sub(due), 1)
		s.late = append(s.late, began.Sub(due))
		s.elapsed = done.Sub(start)
	}
}

// runMixed runs writes beside reads on a two-shard index: mixedWriter in one
// goroutine, and in this one a closed-loop reader that re-pins the composed
// snapshot per batch. Each approximate batch must count, for every base
// polygon, at least the window's exact per-point count. The reader's numbers
// are the end-to-end metrics; the writer's latencies are reported under
// "writer.".
func runMixed(r *runner) {
	set := nycNeighborhoods(false)
	windows := windowsOf(uniformPoints(set, r.sz.pool, r.cfg.seed), r.sz.window)
	st := r.build(set, 2, r.sz.precision)
	defer st.close()
	n := len(set.public)
	v := st.pin()
	floor := make([][]int64, len(windows))
	for i, w := range windows {
		floor[i] = v.pointCounts(w, true, n)
	}
	r.corruptRef(floor[0], len(windows[0]))
	var twin *store
	if r.tr != nil {
		var err error
		if twin, err = buildStore(set, 1, r.sz.precision); err != nil {
			panic(fmt.Sprintf("building the unsharded twin: %v", err))
		}
		defer twin.close()
	}
	m := r.mirror(set, r.sz.precision)

	w := &mixedWriter{st: st, sq: newSquares(set, st, r.cfg.seed)}
	if r.tr != nil {
		w.tr = newTracer(r.cfg.workload, r.tr.origin)
		r.side = append(r.side, w.tr)
	}
	q := query{threads: 1}
	next := 0
	rs, ws := r.loop(func(s *samples) {
		i := next % len(windows)
		next++
		t0 := time.Now()
		out := st.pin().joinCount(windows[i], q)
		t1 := time.Now()
		s.add(t1.Sub(t0), len(windows[i]))
		short := 0
		for id, c := range floor[i] {
			if out.counts[id] < c {
				short++
			}
		}
		r.tally.check(short == 0, "approximate batch over window %d counts %d base polygons below their exact count", i, short)
		if r.tr != nil {
			r.traceJoin(m, twin, windows[i], q, out, t0, t1, n)
		}
	}, w.run)
	if w.local != nil {
		_, err := mutate(st, nil, w.local, nil)
		w.tally.call(err, "mixed cleanup")
	}
	if w.cross != nil {
		_, err := mutate(st, nil, w.cross, nil)
		w.tally.call(err, "mixed cleanup")
	}
	r.tally.merge(w.tally)
	r.endToEnd(rs)
	r.latencies("writer.", ws)
	r.metrics["loadgen.late_ms_p99"] = ms(percentile(ws.late, 0.99))
	r.closingCheck(set, windows[0], m, twin)
	r.finish()
}
