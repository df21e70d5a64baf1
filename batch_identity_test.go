package actjoin

import (
	"math/rand"
	"slices"
	"testing"

	"actjoin/internal/dataset"
	"actjoin/internal/geom"
)

// TestBatchMatchesPerPointAcrossThreadsAndShards drives the batch pipeline
// — parallel conversion and partition included — at several thread and
// shard counts on taxi and uniform points, exact and approximate, and
// compares it with the per-point Covers/CoversApprox loop.
func TestBatchMatchesPerPointAcrossThreadsAndShards(t *testing.T) {
	spec := dataset.NYCNeighborhoods(dataset.ScaleTiny)
	polys := toPublicPolys(spec.Generate())
	toPublic := func(gps []geom.Point) []Point {
		out := make([]Point, len(gps))
		for i, p := range gps {
			out[i] = Point{Lon: p.X, Lat: p.Y}
		}
		return out
	}
	const n = 40_000 // several partition chunks per call
	// World-spanning probes vary in key bits far above 32 after the sort's
	// drop, so they take the permutation schedule; one repeated point
	// collapses to one key and probes in input order.
	rng := rand.New(rand.NewSource(33))
	world := dataset.TaxiPoints(spec.Bound, n, 34)
	for i := 0; i < n; i += 2 {
		world[i] = geom.Point{X: 360*rng.Float64() - 180, Y: 180*rng.Float64() - 90}
	}
	taxi := toPublic(dataset.TaxiPoints(spec.Bound, n, 31))
	oneCell := make([]Point, n)
	for i := range oneCell {
		oneCell[i] = taxi[0]
	}
	streams := map[string][]Point{
		"taxi":     taxi,
		"uniform":  toPublic(dataset.UniformPoints(spec.Bound, n, 32)),
		"world":    toPublic(world),
		"one cell": oneCell,
	}
	for _, shards := range []int{1, 2} {
		idx, err := NewShardedIndex(polys, shards, WithPrecision(30))
		if err != nil {
			t.Fatal(err)
		}
		snap := idx.Current()
		for name, pts := range streams {
			for _, exact := range []bool{false, true} {
				want := make([][]PolygonID, len(pts))
				counts := make([]int64, snap.NumPolygons())
				for i, p := range pts {
					if exact {
						want[i] = snap.Covers(p)
					} else {
						want[i] = snap.CoversApprox(p)
					}
					for _, id := range want[i] {
						counts[id]++
					}
				}
				for _, threads := range []int{1, 2, 4} {
					opt := QueryOptions{Exact: exact, Sorted: true, Threads: threads}
					if got := snap.JoinCount(pts, opt); !slices.Equal(got.Counts, counts) {
						t.Errorf("shards %d %s %+v: JoinCount differs from the per-point loop", shards, name, opt)
					}
					got := snap.CoversBatch(pts, opt)
					for i := range pts {
						if !slices.Equal(got[i], want[i]) {
							t.Fatalf("shards %d %s %+v: point %d: CoversBatch %v, per-point %v",
								shards, name, opt, i, got[i], want[i])
						}
					}
				}
			}
		}
		idx.Close()
	}
}
