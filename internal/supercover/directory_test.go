package supercover

import (
	"math/rand"
	"reflect"
	"testing"

	"actjoin/internal/cellid"
	"actjoin/internal/geom"
	"actjoin/internal/refs"
)

// validate fails the test when the directory has diverged from the tree.
func validate(t *testing.T, sc *SuperCovering, context string) {
	t.Helper()
	if err := sc.ValidateDirectory(); err != nil {
		t.Fatalf("%s: %v", context, err)
	}
}

// TestDirectoryTracksInserts drives random inserts (exercising duplicate
// merges, ancestor conflicts and the distribute path) and validates the
// directory after every operation.
func TestDirectoryTracksInserts(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	sc := New()
	for i := 0; i < 300; i++ {
		sc.Insert(randomCell(rng, 8), randomRefs(rng))
		validate(t, sc, "after insert")
	}
}

// TestDirectoryTracksBuildRefineTrain validates the directory across the
// full build pipeline: Build, RefineToPrecision, RefineCells and Train all
// rewrite reference lists and must keep the reverse mapping in lockstep.
func TestDirectoryTracksBuildRefineTrain(t *testing.T) {
	polys := testPolys()
	sc := Build(polys, DefaultOptions())
	validate(t, sc, "after Build")

	sc.RefineToPrecision(polys, 16)
	validate(t, sc, "after RefineToPrecision")

	rng := rand.New(rand.NewSource(5))
	var train []cellid.CellID
	for i := 0; i < 300; i++ {
		p := geom.Point{X: -73.97 + (rng.Float64()-0.5)*1e-4, Y: 40.70 + rng.Float64()*0.03}
		train = append(train, cellid.FromPoint(p))
	}
	sc.Train(polys, train, 0)
	validate(t, sc, "after Train")

	seed := cellid.FromPoint(geom.Point{X: -73.98, Y: 40.71}).Parent(12)
	sc.Insert(seed, []refs.Ref{refs.MakeRef(2, false)})
	sc.RefineCells(polys, []cellid.CellID{seed}, 17)
	validate(t, sc, "after RefineCells")
}

// TestDirectoryRemovalMatchesWalk runs the same random mutation sequence
// through a directory-removal covering and a walk-removal covering and
// checks the frozen cells, cell counts, referenced-polygon sets and
// coalesced dirty roots stay identical — the core equivalence the
// O(footprint) removal rests on.
func TestDirectoryRemovalMatchesWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for round := 0; round < 10; round++ {
		fast, walk := New(), New()
		walk.SetWalkRemoval(true)
		seed := rng.Int63()
		drive := func(sc *SuperCovering) [][]cellid.CellID {
			r := rand.New(rand.NewSource(seed))
			var dirt [][]cellid.CellID
			for i := 0; i < 120; i++ {
				sc.Insert(randomCell(r, 8), randomRefs(r))
			}
			sc.TakeDirty()
			for batch := 0; batch < 12; batch++ {
				for op, nops := 0, 1+r.Intn(4); op < nops; op++ {
					if r.Intn(2) == 0 {
						sc.RemovePolygon(uint32(r.Intn(20)))
					} else {
						sc.Insert(randomCell(r, 9), randomRefs(r))
					}
				}
				roots, all := sc.TakeDirty()
				if all {
					t.Fatal("unexpected dirty overflow")
				}
				dirt = append(dirt, roots)
			}
			return dirt
		}
		fastDirt := drive(fast)
		walkDirt := drive(walk)

		validate(t, fast, "directory covering")
		validate(t, walk, "walk covering")
		if fast.NumCells() != walk.NumCells() {
			t.Fatalf("NumCells diverged: %d vs %d", fast.NumCells(), walk.NumCells())
		}
		if !reflect.DeepEqual(fast.Cells(), walk.Cells()) {
			t.Fatal("frozen cells diverged between directory and walk removal")
		}
		if !reflect.DeepEqual(fast.ReferencedPolygons(), walk.ReferencedPolygons()) {
			t.Fatal("ReferencedPolygons diverged between directory and walk removal")
		}
		if !reflect.DeepEqual(fastDirt, walkDirt) {
			t.Fatal("coalesced dirty roots diverged between directory and walk removal")
		}
	}
}

// TestDirectorySurvivesResetRegion validates the directory across the
// transaction-rollback primitive: mutate, reset every dirty root from the
// previous freeze, and require the reverse mapping to match the restored
// tree.
func TestDirectorySurvivesResetRegion(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for round := 0; round < 10; round++ {
		sc := New()
		for i := 0; i < 80; i++ {
			sc.Insert(randomCell(rng, 8), randomRefs(rng))
		}
		prev := sc.Cells()
		sc.TakeDirty()

		for op := 0; op < 10; op++ {
			if rng.Intn(3) == 0 {
				sc.RemovePolygon(uint32(rng.Intn(20)))
			} else {
				sc.Insert(randomCell(rng, 9), randomRefs(rng))
			}
		}
		roots, all := sc.TakeDirty()
		if all {
			t.Fatal("unexpected dirty overflow")
		}
		for _, r := range roots {
			var cells []Cell
			lo, hi := r.RangeMin(), r.RangeMax()
			for _, c := range prev {
				if c.ID >= lo && c.ID <= hi {
					cells = append(cells, c)
				}
			}
			if !sc.ResetRegion(r, cells) {
				t.Fatalf("ResetRegion(%v) refused", r)
			}
		}
		validate(t, sc, "after ResetRegion rollback")
		if !reflect.DeepEqual(sc.Cells(), prev) {
			t.Fatal("rollback did not restore the frozen cells")
		}
	}
}

// TestFootprint checks the directory's cell accounting against RemovePolygon's
// touched count, and that removal zeroes it.
func TestFootprint(t *testing.T) {
	polys := testPolys()
	sc := Build(polys, DefaultOptions())
	for id := uint32(0); id < 3; id++ {
		if sc.Footprint(id) == 0 {
			t.Fatalf("polygon %d has no recorded footprint", id)
		}
	}
	want := sc.Footprint(1)
	if got := sc.RemovePolygon(1); got != want {
		t.Fatalf("RemovePolygon touched %d cells, footprint recorded %d", got, want)
	}
	if got := sc.Footprint(1); got != 0 {
		t.Fatalf("footprint after removal = %d", got)
	}
	if ref := sc.ReferencedPolygons(); ref[1] || !ref[0] || !ref[2] {
		t.Fatalf("ReferencedPolygons after removal = %v", ref)
	}
	validate(t, sc, "after removal")
}

// TestRefineToPrecisionRebuildsDirectory checks the directory that bulk
// refinement rebuilds from the finished tree: it matches the tree, every
// footprint is one exactly-sized sorted slice with empty staging tails, the
// runtime mutations that maintain it inline (RemovePolygon, RefineCells,
// Train) keep it valid afterwards, and directory removal still equals the
// walk on it.
func TestRefineToPrecisionRebuildsDirectory(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	polys := testPolys()
	for i := 0; i < 4; i++ {
		polys = append(polys, randomHoledPolygon(rng))
	}
	for _, level := range []int{14, 16, 17} {
		build := func() *SuperCovering {
			sc := Build(polys, DefaultOptions())
			sc.RefineToPrecision(polys, level)
			return sc
		}
		sc := build()
		validate(t, sc, "after RefineToPrecision")
		if len(sc.dir.cells) == 0 {
			t.Fatalf("level %d: empty directory", level)
		}
		for p, f := range sc.dir.cells {
			if len(f.added) != 0 || len(f.removed) != 0 {
				t.Fatalf("level %d: polygon %d: staging tails hold %d added, %d removed", level, p, len(f.added), len(f.removed))
			}
			if cap(f.sorted) != len(f.sorted) {
				t.Fatalf("level %d: polygon %d: %d cells in a slice of capacity %d", level, p, len(f.sorted), cap(f.sorted))
			}
		}

		walk := build()
		walk.SetWalkRemoval(true)
		for _, id := range []uint32{1, 4} {
			if got, want := sc.RemovePolygon(id), walk.RemovePolygon(id); got != want {
				t.Fatalf("level %d: removing %d touched %d cells, the walk %d", level, id, got, want)
			}
		}
		validate(t, sc, "after RemovePolygon")
		validate(t, walk, "after walk removal")
		if !reflect.DeepEqual(sc.Cells(), walk.Cells()) {
			t.Fatalf("level %d: directory and walk removal diverged", level)
		}

		seeds := insertPolygonCells(sc, 1, polys[1])
		sc.RefineCells(polys, seeds, level)
		validate(t, sc, "after RefineCells")

		var train []cellid.CellID
		for i := 0; i < 300; i++ {
			train = append(train, cellid.FromPoint(geom.Point{X: -74 + 0.2*rng.Float64(), Y: 40.6 + 0.2*rng.Float64()}))
		}
		sc.Train(polys, train, 0)
		validate(t, sc, "after Train")
	}
}
