package actjoin

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"actjoin/internal/dataset"
	"actjoin/internal/geom"
)

// Sharded-engine benchmarks: what partitioning the covering buys (and costs)
// on the two paths it exists for — composed batch joins, where probe streams
// radix-split across per-shard pipelines, and parallel publishing, where
// writers on different shards commit under the shared side of the commit
// lock instead of one global writer mutex. Each benchmark runs at GOMAXPROCS
// 1, 2 and 4 so the scaling shape is visible in one sweep. On a
// single-vCPU host the >1-proc rows measure time-slicing overhead, not
// parallel speedup. The gated end-to-end record is the ledger's mixed
// workload (BENCHMARK.json, sh cmd/actledger/run.sh).

type shardBenchFixture struct {
	sharded map[int]*Index // keyed by effective shard count
	taxi    []Point
	bound   geom.Rect
}

var (
	shardBenchOnce sync.Once
	shardBenchFix  *shardBenchFixture
)

// shardBenchFixtureBuild builds the shared benchmark shape (the tiny NYC
// neighborhoods mesh under the 4m bound, as buildTinyNYC4mIndex) once per
// shard count. The publish benchmarks mutate these indexes with Add/Remove
// pairs, which restore the covering but accumulate tombstone id slots — the
// same caveat as the snapshot fixture, and why this fixture is not shared
// with the quiescent batch benchmarks.
func shardBenchFixtureBuild(b *testing.B) *shardBenchFixture {
	b.Helper()
	shardBenchOnce.Do(func() {
		spec := dataset.NYCNeighborhoods(dataset.ScaleTiny)
		polys := toPublicPolys(spec.Generate())
		f := &shardBenchFixture{
			sharded: map[int]*Index{},
			taxi:    toPublicPts(dataset.TaxiPoints(spec.Bound, 100_000, 21)),
			bound:   spec.Bound,
		}
		for _, shards := range []int{1, 2, 4} {
			six, err := NewShardedIndex(polys, shards, WithPrecision(4))
			if err != nil {
				panic(err)
			}
			f.sharded[shards] = six
		}
		shardBenchFix = f
	})
	return shardBenchFix
}

// shardChurnTargets finds one representative point per shard by routing a
// grid over the bound through ShardOf.
func shardChurnTargets(six *Index, bound geom.Rect) []Point {
	targets := make([]Point, six.NumShards())
	found := make([]bool, six.NumShards())
	n := 0
	const grid = 64
	for gy := 0; gy < grid && n < len(targets); gy++ {
		for gx := 0; gx < grid && n < len(targets); gx++ {
			p := Point{
				Lon: bound.Lo.X + (float64(gx)+0.5)/grid*(bound.Hi.X-bound.Lo.X),
				Lat: bound.Lo.Y + (float64(gy)+0.5)/grid*(bound.Hi.Y-bound.Lo.Y),
			}
			if si := six.ShardOf(p); !found[si] {
				found[si] = true
				targets[si] = p
				n++
			}
		}
	}
	out := targets[:0]
	for si, ok := range found {
		if ok {
			out = append(out, targets[si])
		}
	}
	return out
}

// shardChurnSquare returns a tiny square near the writer's target point,
// jittered per iteration so successive adds do not hit identical cells while
// staying inside (or at worst adjacent to) the target shard's key range.
func shardChurnSquare(base Point, i int) Polygon {
	const s = 0.0015
	x := base.Lon + float64(i%7)*0.0003
	y := base.Lat + float64(i%5)*0.0003
	return Polygon{Exterior: Ring{
		{Lon: x, Lat: y}, {Lon: x + s, Lat: y},
		{Lon: x + s, Lat: y + s}, {Lon: x, Lat: y + s},
	}}
}

// benchGOMAXPROCS pins the scheduler width for a sub-benchmark and returns
// the restore function.
func benchGOMAXPROCS(procs int) (restore func()) {
	prev := runtime.GOMAXPROCS(procs)
	return func() { runtime.GOMAXPROCS(prev) }
}

// BenchmarkShardedJoinBatch runs the composed sorted batch join at 1, 2 and
// 4 shards under GOMAXPROCS 1, 2 and 4. The shards=1 rows are the delegation
// baseline (a single-shard composed snapshot forwards to the plain pipeline);
// the multi-shard rows add the radix split and per-shard fan-out.
func BenchmarkShardedJoinBatch(b *testing.B) {
	f := shardBenchFixtureBuild(b)
	for _, procs := range []int{1, 2, 4} {
		for _, shards := range []int{1, 2, 4} {
			b.Run(fmt.Sprintf("procs=%d/shards=%d", procs, shards), func(b *testing.B) {
				defer benchGOMAXPROCS(procs)()
				s := f.sharded[shards].Current()
				opt := QueryOptions{Sorted: true, Threads: procs}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					res := s.JoinCount(f.taxi, opt)
					if res.Counts == nil {
						b.Fatal("bad join")
					}
				}
				reportBatchMpts(b, len(f.taxi))
			})
		}
	}
}

// BenchmarkShardedPublishParallel measures aggregate publish throughput with
// one churn writer per shard, each looping Add/Remove against its own
// shard's key range: on the sharded index those publishes serialize only on
// the shared side of the commit lock (plus each shard's own writer mutex),
// where the single-shard index serializes everything on one mutex.
func BenchmarkShardedPublishParallel(b *testing.B) {
	f := shardBenchFixtureBuild(b)
	for _, procs := range []int{1, 2, 4} {
		for _, shards := range []int{1, 2, 4} {
			b.Run(fmt.Sprintf("procs=%d/shards=%d", procs, shards), func(b *testing.B) {
				defer benchGOMAXPROCS(procs)()
				six := f.sharded[shards]
				writers := shardChurnTargets(six, f.bound)
				per := b.N/len(writers) + 1
				b.ResetTimer()
				var wg sync.WaitGroup
				for _, base := range writers {
					wg.Add(1)
					go func(base Point) {
						defer wg.Done()
						for i := 0; i < per; i++ {
							id, err := six.Add(shardChurnSquare(base, i))
							if err != nil {
								b.Error(err)
								return
							}
							if err := six.Remove(id); err != nil {
								b.Error(err)
								return
							}
						}
					}(base)
				}
				wg.Wait()
				b.StopTimer()
				b.ReportMetric(float64(2*per*len(writers))/b.Elapsed().Seconds(), "publishes/s")
			})
		}
	}
}
