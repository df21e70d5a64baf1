package supercover

import (
	"testing"

	"actjoin/internal/cellid"
	"actjoin/internal/dataset"
	"actjoin/internal/geom"
	"actjoin/internal/refs"
)

// hostileTris are the hostile triangles of the root package's precision
// test: NYC, lat 80, lat 88, straddling the lon -60 face seam, lat 45, up to
// lon 179.995, and across the equator (another face seam).
func hostileTris() []*geom.Polygon {
	tri := func(lon, lat, size float64) *geom.Polygon {
		return geom.MustPolygon(geom.Ring{
			{X: lon, Y: lat}, {X: lon + size, Y: lat + 0.3*size}, {X: lon + 0.4*size, Y: lat + size},
		})
	}
	return []*geom.Polygon{
		tri(-73.98, 40.75, 0.01),
		tri(20, 80, 0.01),
		tri(10, 88, 0.01),
		tri(-60.005, 10, 0.01),
		tri(5, 45, 0.01),
		tri(179.985, 30, 0.01),
		tri(30, -0.005, 0.01),
	}
}

// fourFacesCovering builds a covering whose cells sit on four faces: a
// square centered on (-60, 0), where faces 0, 1, 3 and 4 meet, plus a
// stray candidate cell on face 5 that references the square but lies far
// outside it. Refinement drops the stray cell, so the prune must clear
// face 5's root.
func fourFacesCovering() ([]*geom.Polygon, *SuperCovering) {
	polys := []*geom.Polygon{geom.MustPolygon(geom.Ring{
		{X: -60.004, Y: -0.003}, {X: -59.996, Y: -0.003}, {X: -59.996, Y: 0.003}, {X: -60.004, Y: 0.003},
	})}
	sc := Build(polys, DefaultOptions())
	sc.Insert(leafAt(100, 40).Parent(12), []refs.Ref{refs.MakeRef(0, false)})
	return polys, sc
}

// refineInput is one input of the parallel-refinement equivalence test:
// a fresh unrefined covering per call, since refinement consumes it.
type refineInput struct {
	name  string
	level int
	build func() ([]*geom.Polygon, *SuperCovering)
}

func refineInputs() []refineInput {
	nyc := dataset.NYCNeighborhoods(dataset.ScaleTiny).Generate()
	built := func(polys []*geom.Polygon) func() ([]*geom.Polygon, *SuperCovering) {
		return func() ([]*geom.Polygon, *SuperCovering) { return polys, Build(polys, DefaultOptions()) }
	}
	return []refineInput{
		{"nyc-tiny/4m", nycPrecisionLevel(nyc), built(nyc)},
		// The index refines a set spanning the equator at the 4 m level
		// of latitude 0.
		{"hostile/4m", cellid.LevelForMaxDiagonalMeters(4, 0), built(hostileTris())},
		{"four-faces/18", 18, fourFacesCovering},
	}
}

// checkNoEmptyNodes fails if the tree holds a node with neither a cell nor
// children: refinement must prune every chain it empties.
func checkNoEmptyNodes(t *testing.T, sc *SuperCovering) {
	t.Helper()
	var walk func(n *node, id cellid.CellID)
	walk = func(n *node, id cellid.CellID) {
		if n.hasCell {
			return
		}
		if !n.hasChildren() {
			t.Fatalf("empty node left at %v", id)
		}
		for i := 0; i < 4; i++ {
			if n.children[i] != nil {
				walk(n.children[i], id.Child(i))
			}
		}
	}
	for f := range sc.roots {
		if sc.roots[f] != nil {
			walk(sc.roots[f], cellid.FaceCell(f))
		}
	}
}

// TestParallelRefinementEquivalence refines each input at several worker
// counts, including more workers than the covering has cells, and checks
// that every run produces the golden covering of the serial pass: the same
// frozen cells, a cell count that matches them, a directory that matches
// the tree and no empty node left behind. Run under -race it also checks
// that the workers share nothing they write.
func TestParallelRefinementEquivalence(t *testing.T) {
	for _, in := range refineInputs() {
		t.Run(in.name, func(t *testing.T) {
			polys, sc := in.build()
			tasks := 0
			faces := map[int]bool{}
			for _, c := range sc.Cells() {
				tasks++
				faces[c.ID.Face()] = true
			}
			if in.name == "four-faces/18" && len(faces) < 2 {
				t.Fatalf("cells on %d face(s), want at least 2", len(faces))
			}
			var want []Cell
			for _, workers := range []int{1, 2, 3, 8, tasks + 3} {
				if workers > 64 && in.name == "nyc-tiny/4m" {
					continue // one worker per cell of a 15k-cell covering proves nothing more
				}
				if workers != 1 {
					polys, sc = in.build()
				}
				sc.refineToPrecision(polys, in.level, workers)
				got := sc.Cells()
				if n := sc.NumCells(); n != len(got) {
					t.Errorf("%d workers: NumCells %d, frozen cells %d", workers, n, len(got))
				}
				if err := sc.ValidateDirectory(); err != nil {
					t.Errorf("%d workers: %v", workers, err)
				}
				checkNoEmptyNodes(t, sc)
				if d, g := cellsDigest(got), goldenRefineDigests[in.name]; d != g {
					t.Errorf("%d workers: digest %q, golden %q", workers, d, g)
				}
				if want == nil {
					want = got
					continue
				}
				cellsEqual(t, got, want)
			}
			if in.name == "four-faces/18" && sc.roots[5] != nil {
				t.Error("face 5 still has a root after its only cell was dropped")
			}
		})
	}
}
