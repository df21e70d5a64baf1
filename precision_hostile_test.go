package actjoin

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"actjoin/internal/geom"
	"actjoin/internal/join"
)

// hostileTriangles are small triangles where the cell geometry is least
// friendly to a metric precision bound: near the poles (cells shrink in
// longitude), on a cube-face seam, next to the antimeridian and on the
// equator, plus NYC and mid-latitude references.
func hostileTriangles() []Polygon {
	return []Polygon{
		tri(-73.98, 40.75, 0.01), // NYC
		tri(20, 80, 0.01),        // lat 80
		tri(10, 88, 0.01),        // lat 88
		tri(-60.005, 10, 0.01),   // straddling the lon -60 seam
		tri(5, 45, 0.01),         // lat 45
		tri(179.985, 30, 0.01),   // up to lon 179.995
		tri(30, -0.005, 0.01),    // across the equator
	}
}

// tri returns a triangle of the given size in degrees with its first
// vertex at (lon, lat).
func tri(lon, lat, size float64) Polygon {
	return Polygon{Exterior: Ring{
		{Lon: lon, Lat: lat}, {Lon: lon + size, Lat: lat + 0.3*size}, {Lon: lon + 0.4*size, Lat: lat + size},
	}}
}

// hostileProbes returns n points for the polygon: half uniform over its
// bound grown by a tenth on each side, half within about 10 m of an edge,
// where the approximate join's false positives live.
func hostileProbes(p *geom.Polygon, rng *rand.Rand, n int) []geom.Point {
	b := p.Bound()
	w, h := b.Width(), b.Height()
	pts := make([]geom.Point, 0, n)
	for len(pts) < n/2 {
		pts = append(pts, geom.Point{X: b.Lo.X - 0.1*w + 1.2*w*rng.Float64(), Y: b.Lo.Y - 0.1*h + 1.2*h*rng.Float64()})
	}
	// 10 m in degrees of latitude, and of longitude at the bound's
	// latitude farthest from the equator.
	dy := 10 / 111_320.0
	dx := dy / math.Cos(math.Max(math.Abs(b.Lo.Y), math.Abs(b.Hi.Y))*math.Pi/180)
	for len(pts) < n {
		e := p.Edge(rng.Intn(p.NumEdges()))
		t := rng.Float64()
		pts = append(pts, geom.Point{
			X: e.A.X + t*(e.B.X-e.A.X) + dx*(2*rng.Float64()-1),
			Y: e.A.Y + t*(e.B.Y-e.A.Y) + dy*(2*rng.Float64()-1),
		})
	}
	return pts
}

// TestApproxWithinPrecisionHostile checks the paper's two guarantees on
// hostile geometry, at 1 and 2 shards, for indexes built by NewIndex and for
// the same triangles added one by one through incremental publishes: the
// exact join equals the brute-force oracle, and every false positive of the
// approximate join lies within the precision bound of its polygon. The
// inputs are the hostile triangles at 4 m, and a lat-50 triangle indexed
// together with one at lat 89.9 at 42 m: the build-time refinement level
// must hold for the set's polygon nearest the equator, not for the middle
// of its bound.
func TestApproxWithinPrecisionHostile(t *testing.T) {
	t.Run("hostile/4m", func(t *testing.T) { checkPrecisionBound(t, hostileTriangles(), 4) })
	twoLatitudes := []Polygon{tri(5, 50, 0.01), tri(20, 89.9, 0.01)}
	t.Run("two-latitudes/42m", func(t *testing.T) { checkPrecisionBound(t, twoLatitudes, 42) })
}

// checkPrecisionBound runs TestApproxWithinPrecisionHostile's checks on one
// polygon set at one precision in meters.
func checkPrecisionBound(t *testing.T, tris []Polygon, precision float64) {
	geoms := make([]*geom.Polygon, len(tris))
	for i, p := range tris {
		g, err := toGeom(p)
		if err != nil {
			t.Fatal(err)
		}
		geoms[i] = g
	}
	rng := rand.New(rand.NewSource(88))
	var gpts []geom.Point
	for _, g := range geoms {
		gpts = append(gpts, hostileProbes(g, rng, 50_000)...)
	}
	pts := make([]Point, len(gpts))
	for i, p := range gpts {
		pts[i] = Point{Lon: p.X, Lat: p.Y}
	}
	oracle := join.BruteForce(gpts, geoms)

	for _, shards := range []int{1, 2} {
		for _, path := range []string{"built", "added"} {
			name := fmt.Sprintf("%s/%d-shards", path, shards)
			var ix *Index
			var err error
			if path == "built" {
				ix, err = NewShardedIndex(tris, shards, WithPrecision(precision))
			} else {
				ix, err = NewShardedIndex(tris[:1], shards, WithPrecision(precision))
				for _, p := range tris[1:] {
					if err == nil {
						_, err = ix.Add(p)
					}
				}
			}
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			s := ix.Current()
			exact := s.JoinCount(pts, QueryOptions{Exact: true, Sorted: true, Threads: 2})
			for pid := range geoms {
				if exact.Counts[pid] != oracle[pid] {
					t.Errorf("%s: exact count of polygon %d is %d, brute force %d", name, pid, exact.Counts[pid], oracle[pid])
				}
			}
			worst := 0.0
			hits := make([]int64, len(geoms))
			for i, ids := range s.CoversBatch(pts, QueryOptions{Sorted: true, Threads: 2}) {
				for _, id := range ids {
					if geoms[id].ContainsPoint(gpts[i]) {
						hits[id]++
					} else {
						worst = max(worst, geom.DistanceToPolygonMeters(gpts[i], geoms[id]))
					}
				}
			}
			for pid := range geoms {
				if hits[pid] != oracle[pid] {
					t.Errorf("%s: the approximate join finds %d of the %d points inside polygon %d", name, hits[pid], oracle[pid], pid)
				}
			}
			if worst > precision {
				t.Errorf("%s: an approximate false positive lies %.2f m from its polygon, over the %v m bound", name, worst, precision)
			}
			t.Logf("%s: worst false positive %.2f m", name, worst)
			if err := ix.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
}
