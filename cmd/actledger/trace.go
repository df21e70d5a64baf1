package main

import (
	"time"
)

// span is one timed call into a layer, recorded from outside the engine. A
// span's parent is the name of the enclosing span of the same op. The replay
// spans (act.find, refs.decode, geom.pip) and the covering replay run after
// the call they take apart, so they sit outside their parent's interval: the
// parent's self time is derived by subtraction, not by interval overlap.
type span struct {
	Name     string `json:"name"`
	Workload string `json:"workload"`
	Op       int    `json:"op"`
	Parent   string `json:"parent,omitempty"`
	Start    int64  `json:"start_ns"`
	End      int64  `json:"end_ns"`
	// Workers is the number of goroutines the call ran on, where more than
	// one: wall time times workers is the call's busy time.
	Workers int `json:"workers,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps one goroutine's spans and the counters read at the same
// boundaries. Each goroutine of a workload owns its own tracer; they are
// merged after the goroutines have stopped.
type tracer struct {
	workload string
	origin   time.Time
	spans    []span
	nextOp   int

	// Join path, from the engine's own results.
	points, cacheHits, pipTests int64
	sthPoints                   float64
	// Join path, from the mirror's replays.
	replay replayOut
	// Write path.
	footprintAdds, footprint int64
	orphanMax                int
}

func newTracer(workload string, origin time.Time) *tracer {
	return &tracer{workload: workload, origin: origin}
}

// op starts a new op and returns its id.
func (t *tracer) op() int {
	t.nextOp++
	return t.nextOp
}

func (t *tracer) record(name string, op int, parent string, start, end time.Time, workers int) {
	t.spans = append(t.spans, span{
		Name: name, Workload: t.workload, Op: op, Parent: parent,
		Start: int64(start.Sub(t.origin)), End: int64(end.Sub(t.origin)),
		Workers: workers,
	})
}

// reset drops everything the warm-up recorded, keeping the set-up's op-0
// spans.
func (t *tracer) reset() {
	var setup []span
	for _, s := range t.spans {
		if s.Op == 0 {
			setup = append(setup, s)
		}
	}
	*t = tracer{workload: t.workload, origin: t.origin, nextOp: t.nextOp, spans: setup}
}

// merge folds other's spans and counters into t.
func (t *tracer) merge(o *tracer) {
	t.spans = append(t.spans, o.spans...)
	t.points += o.points
	t.cacheHits += o.cacheHits
	t.pipTests += o.pipTests
	t.sthPoints += o.sthPoints
	t.replay.add(o.replay)
	t.footprintAdds += o.footprintAdds
	t.footprint += o.footprint
	t.orphanMax = max(t.orphanMax, o.orphanMax)
}

func (r *replayOut) add(o replayOut) {
	r.runs += o.runs
	r.found += o.found
	r.depth += o.depth
	r.refs += o.refs
	r.pipTests += o.pipTests
	r.pipTrue += o.pipTrue
}

// Span names. The ledger.* spans are the benchmark's own ops; every other
// span is named after the layer whose exported function it times.
const (
	spanBatch      = "ledger.batch"
	spanJoin       = "actjoin.join_count"
	spanJoinPlain  = "actjoin.join_count_unsharded"
	spanFromPoint  = "cellid.from_point"
	spanRunBatch   = "join.run_batch"
	spanFind       = "act.find"
	spanDecode     = "refs.decode"
	spanPIP        = "geom.pip"
	spanMutation   = "ledger.mutation"
	spanApply      = "actjoin.apply"
	spanTxMutate   = "actjoin.tx_mutate"
	spanPublish    = "actjoin.publish"
	spanCovering   = "cover.covering"
	spanSetup      = "ledger.setup"
	spanSupercover = "supercover.build"
	spanRefine     = "supercover.refine"
	spanEncode     = "cellindex.encode"
	spanTrie       = "act.build"
)

// stallFactor is how many p50 publishes a publish must exceed to count as a
// stall.
const stallFactor = 10

// layerStats derives the per-layer metrics from the spans and counters.
// Times are per op: per join batch for the join path, per mutation for the
// write path. join.self_ms is the batch pipeline's busy time less the busy
// time of the three layers it calls (measured by the single-goroutine
// replay): sort, run cache, worker scheduling and merge.
func layerStats(t *tracer, pubDelta pubStats, tombstones int, g gcDelta) map[string]float64 {
	sum := map[string]time.Duration{}
	count := map[string]int{}
	runBusy := time.Duration(0)
	var publishes []time.Duration
	for _, s := range t.spans {
		sum[s.Name] += s.dur()
		count[s.Name]++
		switch s.Name {
		case spanRunBatch:
			runBusy += s.dur() * time.Duration(max(s.Workers, 1))
		case spanPublish:
			publishes = append(publishes, s.dur())
		}
	}
	perBatch := func(name string) float64 { return ms(sum[name]) / float64(max(count[spanBatch], 1)) }
	perMutation := func(d time.Duration) float64 { return ms(d) / float64(max(count[spanMutation], 1)) }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}

	m := map[string]float64{
		"cellid.from_point_ms":  perBatch(spanFromPoint),
		"join.run_batch_ms":     perBatch(spanRunBatch),
		"join.self_ms":          ms(runBusy-sum[spanFind]-sum[spanDecode]-sum[spanPIP]) / float64(max(count[spanBatch], 1)),
		"join.cache_hit_ratio":  ratio(float64(t.cacheHits), float64(t.points)),
		"join.sth_ratio":        ratio(t.sthPoints, float64(t.points)),
		"act.find_ms":           perBatch(spanFind),
		"act.depth_mean":        ratio(float64(t.replay.depth), float64(t.replay.runs)),
		"refs.decode_ms":        perBatch(spanDecode),
		"refs.refs_per_probe":   ratio(float64(t.replay.refs), float64(t.replay.found)),
		"geom.pip_ms":           perBatch(spanPIP),
		"geom.pip_per_point":    ratio(float64(t.pipTests), float64(t.points)),
		"geom.pip_true_ratio":   ratio(float64(t.replay.pipTrue), float64(t.replay.pipTests)),
		"actjoin.tx_mutate_ms":  perMutation(sum[spanTxMutate]),
		"cover.covering_ms":     perMutation(sum[spanCovering]),
		"supercover.mutate_ms":  perMutation(sum[spanTxMutate] - sum[spanCovering]),
		"actjoin.tombstones":    float64(tombstones),
		"compaction.cycles":     float64(pubDelta.landed),
		"compaction.aborted":    float64(pubDelta.aborted),
		"publish.patched_ratio": ratio(float64(pubDelta.patched), float64(pubDelta.patched+pubDelta.full)),
		"act.orphan_nodes_max":  float64(t.orphanMax),
		"supercover.build_ms":   ms(sum[spanSupercover]),
		"cellindex.encode_ms":   ms(sum[spanEncode]),
		"act.build_ms":          ms(sum[spanTrie]),
		"gc.cycles":             float64(g.cycles),
		"gc.pause_ms_total":     ms(g.pause),
		"gc.cpu_fraction":       g.cpuFraction,
	}
	if len(publishes) > 0 {
		p50 := percentile(publishes, 0.50)
		m["actjoin.publish_ms_p50"] = ms(p50)
		m["actjoin.publish_ms_p99"] = ms(percentile(publishes, 0.99))
		stalls := 0
		for _, d := range publishes {
			if d > stallFactor*p50 {
				stalls++
			}
		}
		m["compaction.stall_count"] = float64(stalls)
	}
	// On a sharded store the mirror reproduces the unsharded twin, so the
	// coverage compares against the twin, and the twin's time is what the
	// shards' routing and merge add to.
	mirrored := sum[spanJoin]
	if count[spanJoinPlain] > 0 {
		mirrored = sum[spanJoinPlain]
		m["actjoin.shard_overhead_ms"] = perBatch(spanJoin) - perBatch(spanJoinPlain)
	}
	m["trace.join_coverage"] = ratio(float64(sum[spanFromPoint]+sum[spanRunBatch]), float64(mirrored))
	m["trace.overhead"] = ratio(float64(sum[spanBatch]), float64(sum[spanJoin])) - 1
	if sum[spanRefine] > 0 {
		m["supercover.refine_ms"] = ms(sum[spanRefine])
	}
	if t.footprintAdds > 0 {
		m["actjoin.footprint_cells"] = ratio(float64(t.footprint), float64(t.footprintAdds))
	}
	return m
}
