package actjoin

import (
	"sync"
	"sync/atomic"
	"testing"

	"actjoin/internal/dataset"
	"actjoin/internal/geom"
)

// Snapshot-API benchmarks: what a mutation costs before its snapshot swap
// (publish latency), what Current costs on the read path (an atomic load),
// and what batch-join throughput looks like with a writer continuously
// publishing snapshots next to it — the serving regime the snapshot design
// exists for. Compare against the quiescent join workloads BENCHMARK.json
// declares (sh cmd/actledger/run.sh).

type snapshotFixture struct {
	idx   *Index
	taxi  []Point
	bound geom.Rect
}

var (
	snapOnce sync.Once
	snapFix  *snapshotFixture
)

// snapshotBenchFixture builds a dedicated index of the shared benchmark
// shape (buildTinyNYC4mIndex, same mesh/precision/points as
// joinBatchFixture) — dedicated because these benchmarks mutate it
// (Add/Remove pairs restore the covering but accumulate tombstone id slots,
// which must not leak into the quiescent batch benchmarks).
func snapshotBenchFixture(b *testing.B) *snapshotFixture {
	b.Helper()
	snapOnce.Do(func() {
		idx, spec := buildTinyNYC4mIndex()
		snapFix = &snapshotFixture{
			idx:   idx,
			taxi:  toPublicPts(dataset.TaxiPoints(spec.Bound, 100_000, 21)),
			bound: spec.Bound,
		}
	})
	return snapFix
}

// benchChurnSquare returns a small square inside the fixture bound, shifted
// per iteration.
func benchChurnSquare(bound geom.Rect, i int) Polygon {
	w := bound.Hi.X - bound.Lo.X
	h := bound.Hi.Y - bound.Lo.Y
	x := bound.Lo.X + (0.15+0.06*float64(i%11))*w
	y := bound.Lo.Y + (0.15+0.06*float64(i%12))*h
	return Polygon{Exterior: Ring{
		{Lon: x, Lat: y}, {Lon: x + 0.01*w, Lat: y},
		{Lon: x + 0.01*w, Lat: y + 0.01*h}, {Lon: x, Lat: y + 0.01*h},
	}}
}

// BenchmarkSnapshotCurrent measures the read path's entry cost: one atomic
// pointer load per query batch.
func BenchmarkSnapshotCurrent(b *testing.B) {
	f := snapshotBenchFixture(b)
	b.ResetTimer()
	var s *Snapshot
	for i := 0; i < b.N; i++ {
		s = f.idx.Current()
	}
	if s == nil {
		b.Fatal("no snapshot")
	}
}

// BenchmarkSnapshotPublishAddRemove measures mutation→publish latency on
// the default incremental path: each iteration is one Add and one Remove,
// each patching the previous frozen snapshot and swapping a new one in (two
// publishes per op). Compare against the FullRebuild variant below — the
// pre-incremental behaviour this path replaced.
func BenchmarkSnapshotPublishAddRemove(b *testing.B) {
	f := snapshotBenchFixture(b)
	before, _ := f.idx.shards[0].publishCounters()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id, err := f.idx.Add(benchChurnSquare(f.bound, i))
		if err != nil {
			b.Fatal(err)
		}
		if err := f.idx.Remove(id); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if after, _ := f.idx.shards[0].publishCounters(); after == before {
		b.Fatal("incremental publish path never engaged")
	}
	b.ReportMetric(b.Elapsed().Seconds()*1e3/float64(2*b.N), "ms/publish")
}

// BenchmarkSnapshotPublishFullRebuildAddRemove is the same churn with
// incremental publishing switched off: every publish re-freezes all ~0.9M
// cells, re-encodes the lookup table and rebuilds the trie — the baseline
// incremental publishing is compared against. It flips the fixture's publish mode for
// its duration (benchmarks in this file run sequentially).
func BenchmarkSnapshotPublishFullRebuildAddRemove(b *testing.B) {
	f := snapshotBenchFixture(b)
	f.idx.shards[0].mu.Lock()
	f.idx.shards[0].opt.fullPublish = true
	f.idx.shards[0].mu.Unlock()
	defer func() {
		f.idx.shards[0].mu.Lock()
		f.idx.shards[0].opt.fullPublish = false
		f.idx.shards[0].mu.Unlock()
	}()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id, err := f.idx.Add(benchChurnSquare(f.bound, i))
		if err != nil {
			b.Fatal(err)
		}
		if err := f.idx.Remove(id); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(b.Elapsed().Seconds()*1e3/float64(2*b.N), "ms/publish")
}

// BenchmarkSnapshotRemovePublish isolates the Remove+publish pair — the
// write-path operation the per-polygon cell directory makes O(footprint).
// Each iteration adds a small polygon outside the timer, then times its
// Remove (locate the polygon's cells via the directory, edit them, publish
// incrementally). Compare against the Walk variant below, which forces the
// pre-directory full-quadtree search on the same ~0.9M-cell index. The
// gated end-to-end record is the ledger's churn workload (BENCHMARK.json,
// sh cmd/actledger/run.sh).
func BenchmarkSnapshotRemovePublish(b *testing.B) {
	f := snapshotBenchFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		id, err := f.idx.Add(benchChurnSquare(f.bound, i))
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if err := f.idx.Remove(id); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(b.Elapsed().Seconds()*1e3/float64(b.N), "ms/remove")
}

// BenchmarkSnapshotRemovePublishWalk is the same Remove+publish pair with
// the directory bypassed: every Remove walks the whole quadtree to find the
// polygon's cells, the behaviour the directory replaced (equivalent to
// building with withWalkRemoval(true)). It flips the fixture's removal mode
// for its duration (benchmarks in this file run sequentially).
func BenchmarkSnapshotRemovePublishWalk(b *testing.B) {
	f := snapshotBenchFixture(b)
	f.idx.shards[0].mu.Lock()
	f.idx.shards[0].sc.SetWalkRemoval(true)
	f.idx.shards[0].mu.Unlock()
	defer func() {
		f.idx.shards[0].mu.Lock()
		f.idx.shards[0].sc.SetWalkRemoval(false)
		f.idx.shards[0].mu.Unlock()
	}()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		id, err := f.idx.Add(benchChurnSquare(f.bound, i))
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if err := f.idx.Remove(id); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(b.Elapsed().Seconds()*1e3/float64(b.N), "ms/remove")
}

// BenchmarkSnapshotApplyBatch10 is the Apply counterpart: ten Add/Remove
// pairs staged in one transaction, one publish at the end — the batching
// that amortizes the rebuild cost across mutations.
func BenchmarkSnapshotApplyBatch10(b *testing.B) {
	f := snapshotBenchFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		err := f.idx.Apply(func(tx *Tx) error {
			for k := 0; k < 10; k++ {
				id, err := tx.Add(benchChurnSquare(f.bound, i*10+k))
				if err != nil {
					return err
				}
				if err := tx.Remove(id); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(b.Elapsed().Seconds()*1e3/float64(b.N), "ms/publish")
}

// BenchmarkSnapshotJoinQuiescent is the contention baseline: the same
// snapshot join as BenchmarkSnapshotJoinLiveWriter, with no writer.
func BenchmarkSnapshotJoinQuiescent(b *testing.B) {
	f := snapshotBenchFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := f.idx.Current().JoinCount(f.taxi, QueryOptions{Sorted: true, Threads: 1})
		if res.Counts == nil {
			b.Fatal("bad join")
		}
	}
	reportBatchMpts(b, len(f.taxi))
}

// BenchmarkSnapshotJoinLiveWriter runs the same join while a goroutine
// loops Add/Remove as fast as it can, each publishing a snapshot. Readers
// take no locks, so the difference to the quiescent number is CPU
// contention with the rebuild, not blocking.
func BenchmarkSnapshotJoinLiveWriter(b *testing.B) {
	f := snapshotBenchFixture(b)
	stop := make(chan struct{})
	var publishes atomic.Int64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			id, err := f.idx.Add(benchChurnSquare(f.bound, i))
			if err != nil {
				return
			}
			if f.idx.Remove(id) != nil {
				return
			}
			publishes.Add(2)
		}
	}()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := f.idx.Current().JoinCount(f.taxi, QueryOptions{Sorted: true, Threads: 1})
		if res.Counts == nil {
			b.Fatal("bad join")
		}
	}
	b.StopTimer()
	close(stop)
	wg.Wait()
	reportBatchMpts(b, len(f.taxi))
	b.ReportMetric(float64(publishes.Load())/b.Elapsed().Seconds(), "publishes/s")
}
