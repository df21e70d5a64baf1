package supercover

import (
	"slices"
	"testing"

	"actjoin/internal/cellid"
	"actjoin/internal/geom"
	"actjoin/internal/refs"
)

// treeRefs maps every cell of the tree to its node's reference list — the
// slice itself, so that its backing array can be compared later.
func treeRefs(sc *SuperCovering) map[cellid.CellID][]refs.Ref {
	out := make(map[cellid.CellID][]refs.Ref)
	var walk func(n *node, id cellid.CellID)
	walk = func(n *node, id cellid.CellID) {
		if n.hasCell {
			out[id] = n.refs
			return
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
	return out
}

// dirWrite is one footprint write a directory hook saw.
type dirWrite struct {
	p   uint32
	id  cellid.CellID
	add bool
}

// square returns the axis-aligned square polygon with lower-left corner
// (x, y) and the given side in degrees.
func square(x, y, side float64) *geom.Polygon {
	return geom.MustPolygon(geom.Ring{{X: x, Y: y}, {X: x + side, Y: y}, {X: x + side, Y: y + side}, {X: x, Y: y + side}})
}

// TestRefineCellsRevisitWritesOnlyChanges re-adds a square where one was
// added and removed before, so its seed regions are already refined at
// 4 m, and checks that refining them again writes the directory only for
// the polygon ids a cell gains or loses and keeps the reference slice of
// every cell whose list did not change.
func TestRefineCellsRevisitWritesOnlyChanges(t *testing.T) {
	polys := testPolys()
	level := nycPrecisionLevel(polys)
	sc := Build(polys, DefaultOptions())
	sc.RefineToPrecision(polys, level)

	// Across the edge polygons 0 and 1 share, inside polygon 2.
	sq := square(-73.972, 40.718, 0.003)
	polys = append(polys, sq, sq)
	sc.RefineCells(polys, insertPolygonCells(sc, 3, sq), level)
	sc.RemovePolygon(3)
	seeds := insertPolygonCells(sc, 4, sq)
	validate(t, sc, "after the re-insert")

	before := treeRefs(sc)
	var writes []dirWrite
	sc.dir.onWrite = func(p uint32, id cellid.CellID, add bool) {
		writes = append(writes, dirWrite{p, id, add})
	}
	sc.RefineCells(polys, seeds, level)
	sc.dir.onWrite = nil
	validate(t, sc, "after the revisit")
	after := treeRefs(sc)

	for _, w := range writes {
		had, has := hasPolygon(before[w.id], w.p), hasPolygon(after[w.id], w.p)
		if w.add && (had || !has) || !w.add && (!had || has) {
			t.Fatalf("cell %v: add=%v of polygon %d, but its list went from %v to %v", w.id, w.add, w.p, before[w.id], after[w.id])
		}
	}

	inSeeds := func(id cellid.CellID) bool {
		for _, s := range seeds {
			if s.Contains(id) {
				return true
			}
		}
		return false
	}
	kept, neighbours := 0, 0
	for id, rs := range after {
		old, ok := before[id]
		if !ok || !inSeeds(id) || !slices.Equal(old, rs) {
			continue
		}
		if &old[0] != &rs[0] {
			t.Fatalf("cell %v: unchanged list %v was reallocated", id, rs)
		}
		kept++
		if hasPolygon(rs, 0) || hasPolygon(rs, 1) || hasPolygon(rs, 2) {
			neighbours++
		}
	}
	if kept == 0 || neighbours == 0 {
		t.Fatalf("%d revisited cells kept their list, %d of them referencing a neighbour: nothing was checked", kept, neighbours)
	}
	t.Logf("%d revisited cells kept their list (%d referencing a neighbour); %d footprint writes", kept, neighbours, len(writes))
}

// FuzzRefineCellsDirectory decodes its input into a script of runtime adds
// (Insert and RefineCells) and removals of squares inside the refined
// region of testPolys, and checks the directory and the tree after every
// step. Each step is three bytes: an op byte (even adds, odd removes a live
// square) and two operands — the grid corner of the square to add, its
// side taken from the op byte, or the index of the square to remove. The
// grid is coarse, so scripts often re-add squares where others were.
func FuzzRefineCellsDirectory(f *testing.F) {
	const (
		level    = 18
		maxSteps = 12
	)
	f.Add([]byte{0, 3, 4, 1, 0, 0, 0, 3, 4})
	f.Add([]byte{2, 3, 4, 4, 4, 4, 1, 1, 0, 6, 3, 5, 0, 3, 4, 1, 0, 0})
	f.Add([]byte{0, 0, 0, 0, 7, 7, 0, 15, 15, 1, 2, 0, 1, 1, 0, 0, 7, 7})
	f.Fuzz(func(t *testing.T, script []byte) {
		polys := testPolys()
		sc := Build(polys, DefaultOptions())
		sc.RefineToPrecision(polys, level)
		var live []uint32
		for step := 0; step < maxSteps && 3*step+2 < len(script); step++ {
			op, a, b := script[3*step], script[3*step+1], script[3*step+2]
			if op&1 == 0 || len(live) == 0 {
				id := uint32(len(polys))
				x := -74.00 + float64(a%16)*0.0036
				y := 40.70 + float64(b%16)*0.0027
				polys = append(polys, square(x, y, 0.001*float64(1+op>>1%4)))
				sc.RefineCells(polys, insertPolygonCells(sc, id, polys[id]), level)
				live = append(live, id)
			} else {
				k := int(a) % len(live)
				sc.RemovePolygon(live[k])
				live = slices.Delete(live, k, k+1)
			}
			if err := sc.ValidateDirectory(); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			checkNoEmptyNodes(t, sc)
		}
	})
}
