package main

import (
	"runtime"
	"runtime/metrics"
	"strings"
	"time"
)

// metricDef describes one metric the benchmark reports. End-to-end metrics
// come from untraced runs, per-layer ones from traced runs. The gated ones
// are emitted by every workload and listed in BENCHMARK.json, which adds
// their regression bounds; the rest are reported where they apply.
type metricDef struct {
	name, unit, better string
	layer, gated       bool
}

var catalog = []metricDef{
	{name: "throughput_per_s", unit: "1/s", better: "higher", gated: true},
	{name: "latency_ms_p50", unit: "ms", better: "lower", gated: true},
	{name: "latency_ms_p99", unit: "ms", better: "lower"},
	{name: "heap_mb", unit: "MB", better: "lower", gated: true},
	{name: "setup_s", unit: "s", better: "lower", gated: true},
	{name: "latency_samples", unit: "count", better: "higher"},
	{name: "error_rate", unit: "ratio", better: "lower"},
	{name: "host.calibration_ms", unit: "ms", better: "lower"},

	// Join path.
	{name: "cellid.from_point_ms", unit: "ms", better: "lower", layer: true, gated: true},
	{name: "join.run_batch_ms", unit: "ms", better: "lower", layer: true, gated: true},
	{name: "join.self_ms", unit: "ms", better: "lower", layer: true, gated: true},
	{name: "join.cache_hit_ratio", unit: "ratio", better: "higher", layer: true, gated: true},
	{name: "join.sth_ratio", unit: "ratio", better: "higher", layer: true, gated: true},
	{name: "act.find_ms", unit: "ms", better: "lower", layer: true, gated: true},
	{name: "act.depth_mean", unit: "nodes", better: "lower", layer: true, gated: true},
	{name: "refs.decode_ms", unit: "ms", better: "lower", layer: true, gated: true},
	{name: "refs.refs_per_probe", unit: "refs", better: "lower", layer: true, gated: true},
	{name: "geom.pip_ms", unit: "ms", better: "lower", layer: true, gated: true},
	{name: "geom.pip_per_point", unit: "tests/point", better: "lower", layer: true, gated: true},
	{name: "geom.pip_true_ratio", unit: "ratio", better: "higher", layer: true, gated: true},
	{name: "actjoin.shard_overhead_ms", unit: "ms", better: "lower", layer: true},
	// Write path.
	{name: "actjoin.tx_mutate_ms", unit: "ms", better: "lower", layer: true, gated: true},
	{name: "cover.covering_ms", unit: "ms", better: "lower", layer: true, gated: true},
	{name: "supercover.mutate_ms", unit: "ms", better: "lower", layer: true, gated: true},
	{name: "actjoin.publish_ms_p50", unit: "ms", better: "lower", layer: true, gated: true},
	{name: "actjoin.publish_ms_p99", unit: "ms", better: "lower", layer: true, gated: true},
	{name: "actjoin.footprint_cells", unit: "cells", better: "lower", layer: true},
	{name: "actjoin.tombstones", unit: "count", better: "lower", layer: true, gated: true},
	{name: "compaction.cycles", unit: "count", better: "lower", layer: true, gated: true},
	{name: "compaction.aborted", unit: "count", better: "lower", layer: true, gated: true},
	{name: "publish.patched_ratio", unit: "ratio", better: "higher", layer: true, gated: true},
	{name: "compaction.stall_count", unit: "count", better: "lower", layer: true, gated: true},
	{name: "act.orphan_nodes_max", unit: "nodes", better: "lower", layer: true, gated: true},
	// Set-up.
	{name: "supercover.build_ms", unit: "ms", better: "lower", layer: true, gated: true},
	{name: "supercover.refine_ms", unit: "ms", better: "lower", layer: true},
	{name: "cellindex.encode_ms", unit: "ms", better: "lower", layer: true, gated: true},
	{name: "act.build_ms", unit: "ms", better: "lower", layer: true, gated: true},
	// Runtime and load generator.
	{name: "gc.cycles", unit: "count", better: "lower", layer: true, gated: true},
	{name: "gc.cpu_fraction", unit: "ratio", better: "lower", layer: true, gated: true},
	{name: "gc.pause_ms_total", unit: "ms", better: "lower", layer: true},
	{name: "loadgen.late_ms_p99", unit: "ms", better: "lower", layer: true},
	// Validity of the traced split.
	{name: "trace.join_coverage", unit: "ratio", better: "higher", layer: true},
	{name: "trace.overhead", unit: "ratio", better: "lower", layer: true},
}

// prefixes are the variants an end-to-end metric is also reported under: the
// wall-clock value (wall.) and mixed's writer (writer.), in printing order.
var prefixes = []string{"", "writer.", "wall.", "wall.writer."}

// lookup finds a metric's definition; the prefixed variants share the
// definitions of the unprefixed names.
func lookup(name string) (metricDef, bool) {
	for _, p := range []string{"wall.", "writer."} {
		name = strings.TrimPrefix(name, p)
	}
	for _, d := range catalog {
		if d.name == name {
			return d, true
		}
	}
	return metricDef{}, false
}

// liveHeap returns the bytes of live heap after forced collections (two, so
// that sync.Pool victims are gone too).
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	return markedHeap()
}

// markedHeap returns the bytes of heap the last collection marked live.
func markedHeap() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

type gcSample struct {
	cycles         uint64
	pause          time.Duration
	gcCPU, someCPU float64
}

func readGC() gcSample {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	g := gcSample{cycles: uint64(m.NumGC), pause: time.Duration(m.PauseTotalNs)}
	if s[0].Value.Kind() == metrics.KindFloat64 && s[1].Value.Kind() == metrics.KindFloat64 {
		g.gcCPU, g.someCPU = s[0].Value.Float64(), s[1].Value.Float64()
	}
	return g
}

// gcDelta is the collector's work over the measured phase.
type gcDelta struct {
	start       gcSample
	cycles      uint64
	pause       time.Duration
	cpuFraction float64
}

func (g *gcDelta) finish(end gcSample) {
	g.cycles = end.cycles - g.start.cycles
	g.pause = end.pause - g.start.pause
	if cpu := end.someCPU - g.start.someCPU; cpu > 0 {
		g.cpuFraction = (end.gcCPU - g.start.gcCPU) / cpu
	}
}
