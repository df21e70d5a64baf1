package cellid

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"actjoin/internal/geom"
)

func TestFaceCells(t *testing.T) {
	for f := 0; f < NumFaces; f++ {
		c := FaceCell(f)
		if !c.IsValid() {
			t.Fatalf("face cell %d invalid", f)
		}
		if c.Face() != f {
			t.Errorf("FaceCell(%d).Face() = %d", f, c.Face())
		}
		if c.Level() != 0 {
			t.Errorf("FaceCell(%d).Level() = %d, want 0", f, c.Level())
		}
		want := faceRect(f)
		if got := c.Bound(); got != want {
			t.Errorf("FaceCell(%d).Bound() = %v, want %v", f, got, want)
		}
	}
}

func TestFaceRectsTileTheWorld(t *testing.T) {
	var total float64
	for f := 0; f < NumFaces; f++ {
		r := FaceRect(f)
		total += r.Area()
		for g := f + 1; g < NumFaces; g++ {
			inter := r.Intersection(FaceRect(g))
			if inter.Area() > 0 {
				t.Errorf("faces %d and %d overlap: %v", f, g, inter)
			}
		}
	}
	if total != 360*180 {
		t.Errorf("total face area = %v, want %v", total, 360*180)
	}
}

func TestFromPointRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		p := geom.Point{X: rng.Float64()*360 - 180, Y: rng.Float64()*180 - 90}
		c := FromPoint(p)
		if !c.IsValid() {
			t.Fatalf("FromPoint(%v) invalid", p)
		}
		if !c.IsLeaf() {
			t.Fatalf("FromPoint must return leaf cells, got level %d", c.Level())
		}
		if !c.Bound().ContainsPoint(p) {
			t.Fatalf("leaf bound %v does not contain %v", c.Bound(), p)
		}
	}
}

func TestFromPointClamping(t *testing.T) {
	outside := []geom.Point{
		{X: -180.1, Y: 0}, {X: 180.1, Y: 0}, {X: 0, Y: -90.5}, {X: 0, Y: 90.5},
		{X: 999, Y: 999}, {X: -999, Y: -999},
	}
	for _, p := range outside {
		if c := FromPoint(p); !c.IsValid() {
			t.Errorf("FromPoint(%v) should clamp to a valid cell", p)
		}
	}
}

func TestParentChildRelations(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 1000; i++ {
		p := geom.Point{X: rng.Float64()*360 - 180, Y: rng.Float64()*180 - 90}
		leaf := FromPoint(p)
		for level := 0; level < MaxLevel; level++ {
			parent := leaf.Parent(level)
			if parent.Level() != level {
				t.Fatalf("Parent(%d).Level() = %d", level, parent.Level())
			}
			if !parent.Contains(leaf) {
				t.Fatalf("parent %v must contain leaf %v", parent, leaf)
			}
			if !parent.Bound().ContainsPoint(p) {
				t.Fatalf("parent bound must contain the original point")
			}
			child := leaf.Parent(level + 1)
			if child.ImmediateParent() != parent {
				t.Fatalf("ImmediateParent mismatch at level %d", level+1)
			}
		}
	}
}

func TestChildrenPartitionParent(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 300; i++ {
		p := geom.Point{X: rng.Float64()*360 - 180, Y: rng.Float64()*180 - 90}
		level := rng.Intn(MaxLevel-1) + 1
		c := FromPoint(p).Parent(level)
		kids := c.Children()

		var area float64
		pb := c.Bound()
		for k, kid := range kids {
			if kid.Level() != level+1 {
				t.Fatalf("child level = %d, want %d", kid.Level(), level+1)
			}
			if kid.ImmediateParent() != c {
				t.Fatalf("child %d does not point back to parent", k)
			}
			if !c.Contains(kid) {
				t.Fatalf("parent must contain child %d", k)
			}
			kb := kid.Bound()
			if !pb.ContainsRect(kb) {
				t.Fatalf("parent bound must contain child bound")
			}
			area += kb.Area()
			if c.Child(k) != kid {
				t.Fatalf("Child(%d) != Children()[%d]", k, k)
			}
			for k2 := k + 1; k2 < 4; k2++ {
				if kids[k2].Bound().Intersection(kb).Area() > 1e-12*kb.Area() {
					t.Fatalf("children %d and %d overlap", k, k2)
				}
			}
		}
		if math.Abs(area-pb.Area()) > 1e-9*pb.Area() {
			t.Fatalf("children areas %v do not sum to parent area %v", area, pb.Area())
		}
	}
}

// The property the paper relies on (Figure 1): child ids share a common
// prefix with their parent, i.e. the parent's range contains them and
// sorted order groups subtrees contiguously.
func TestHilbertPrefixProperty(t *testing.T) {
	f := func(lon, lat float64, rawLevel uint8) bool {
		lon = math.Mod(math.Abs(lon), 360) - 180
		lat = math.Mod(math.Abs(lat), 180) - 90
		level := int(rawLevel) % MaxLevel
		c := FromPoint(geom.Point{X: lon, Y: lat}).Parent(level)
		kids := c.Children()
		// All descendants fall within [RangeMin, RangeMax].
		for _, kid := range kids {
			if kid < c.RangeMin() || kid > c.RangeMax() {
				return false
			}
		}
		// Hilbert continuity: children sorted ascending.
		return kids[0] < kids[1] && kids[1] < kids[2] && kids[2] < kids[3]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestContainsIntersects(t *testing.T) {
	p := geom.Point{X: -73.97, Y: 40.75}
	leaf := FromPoint(p)
	a := leaf.Parent(5)
	b := leaf.Parent(10)
	if !a.Contains(b) || a.Intersects(b) == false {
		t.Error("ancestor must contain and intersect descendant")
	}
	if b.Contains(a) {
		t.Error("descendant must not contain ancestor")
	}
	if !b.Intersects(a) {
		t.Error("intersection must be symmetric")
	}
	// Two disjoint cells at the same level.
	other := FromPoint(geom.Point{X: 100, Y: -45}).Parent(5)
	if a.Contains(other) || a.Intersects(other) {
		t.Error("cells on different faces must be disjoint")
	}
	if !a.Contains(a) {
		t.Error("a cell contains itself")
	}
}

func TestLevelArithmetic(t *testing.T) {
	leaf := FromPoint(geom.Point{X: 1, Y: 1})
	if !leaf.IsLeaf() || leaf.Level() != MaxLevel {
		t.Fatalf("leaf level = %d", leaf.Level())
	}
	for l := 0; l <= MaxLevel; l++ {
		c := leaf.Parent(l)
		if c.Level() != l {
			t.Errorf("Parent(%d).Level() = %d", l, c.Level())
		}
		if l == MaxLevel && c != leaf {
			t.Error("Parent(MaxLevel) must be identity for leaves")
		}
	}
}

func TestChildPositionConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 500; i++ {
		p := geom.Point{X: rng.Float64()*360 - 180, Y: rng.Float64()*180 - 90}
		leaf := FromPoint(p)
		// Rebuild each ancestor by following child positions from the face
		// cell; must arrive at the same id.
		c := FaceCell(leaf.Face())
		for l := 1; l <= 12; l++ {
			c = c.Child(leaf.ChildPosition(l))
		}
		if c != leaf.Parent(12) {
			t.Fatalf("child-position walk diverged: %v vs %v", c, leaf.Parent(12))
		}
	}
}

func TestBoundNesting(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 500; i++ {
		p := geom.Point{X: rng.Float64()*360 - 180, Y: rng.Float64()*180 - 90}
		leaf := FromPoint(p)
		prev := leaf.Parent(0).Bound()
		for l := 1; l <= 20; l++ {
			b := leaf.Parent(l).Bound()
			if !prev.ContainsRect(b) {
				t.Fatalf("bound at level %d not nested in level %d", l, l-1)
			}
			// Each level halves both extents.
			if math.Abs(b.Width()*2-prev.Width()) > 1e-9 {
				t.Fatalf("width at level %d = %v, want half of %v", l, b.Width(), prev.Width())
			}
			prev = b
		}
	}
}

func TestSortGroupsSubtrees(t *testing.T) {
	// Sorted leaf ids of one subtree must be contiguous: no id from a
	// different subtree can fall between them.
	rng := rand.New(rand.NewSource(6))
	parent := FromPoint(geom.Point{X: -73.9, Y: 40.7}).Parent(8)
	var inside, outside []CellID
	for i := 0; i < 200; i++ {
		b := parent.Bound()
		p := geom.Point{
			X: b.Lo.X + rng.Float64()*b.Width(),
			Y: b.Lo.Y + rng.Float64()*b.Height(),
		}
		c := FromPoint(p)
		if parent.Contains(c) {
			inside = append(inside, c)
		}
		q := geom.Point{X: rng.Float64()*360 - 180, Y: rng.Float64()*180 - 90}
		oc := FromPoint(q)
		if !parent.Contains(oc) {
			outside = append(outside, oc)
		}
	}
	if len(inside) < 10 || len(outside) < 10 {
		t.Fatal("test setup failed to generate points")
	}
	all := append(append([]CellID{}, inside...), outside...)
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	// Find the span of inside cells; it must be contiguous.
	first, last := -1, -1
	for i, c := range all {
		if parent.Contains(c) {
			if first == -1 {
				first = i
			}
			last = i
		}
	}
	for i := first; i <= last; i++ {
		if !parent.Contains(all[i]) {
			t.Fatalf("outside cell interleaved in subtree span at %d", i)
		}
	}
}

func TestRangeMinMax(t *testing.T) {
	c := FromPoint(geom.Point{X: 10, Y: 10}).Parent(4)
	if c.RangeMin() > c || c.RangeMax() < c {
		t.Error("cell id must lie within its own range")
	}
	if got := c.RangeMin().Level(); got != MaxLevel {
		t.Errorf("RangeMin level = %d, want leaf", got)
	}
	if got := c.RangeMax().Level(); got != MaxLevel {
		t.Errorf("RangeMax level = %d, want leaf", got)
	}
	kids := c.Children()
	if kids[0].RangeMin() != c.RangeMin() {
		t.Error("first child shares RangeMin with parent")
	}
	if kids[3].RangeMax() != c.RangeMax() {
		t.Error("last child shares RangeMax with parent")
	}
}

func TestLevelForMaxDiagonalMeters(t *testing.T) {
	// The paper's reference point: <4m precision corresponds to level 22
	// at NYC's latitude (Section 3.1.2 and 3.2).
	if got := LevelForMaxDiagonalMeters(4, 40.7); got != 22 {
		t.Errorf("level for 4m = %d, want 22", got)
	}
	l60 := LevelForMaxDiagonalMeters(60, 40.7)
	l15 := LevelForMaxDiagonalMeters(15, 40.7)
	l4 := LevelForMaxDiagonalMeters(4, 40.7)
	if !(l60 < l15 && l15 < l4) {
		t.Errorf("levels must increase with precision: %d %d %d", l60, l15, l4)
	}
	// And the diagonal at the returned level must actually satisfy the bound.
	for _, bound := range []float64{60, 15, 4} {
		level := LevelForMaxDiagonalMeters(bound, 40.7)
		c := FromPoint(geom.Point{X: -73.97, Y: 40.7}).Parent(level)
		if d := c.DiagonalMeters(); d > bound {
			t.Errorf("diagonal at level %d = %vm exceeds bound %vm", level, d, bound)
		}
	}
}

func TestStringRendering(t *testing.T) {
	c := FromPoint(geom.Point{X: -73.97, Y: 40.75}).Parent(3)
	s := c.String()
	if len(s) != 2+3 { // "f/" + 3 digits
		t.Errorf("String() = %q, want face/3 digits", s)
	}
	if CellID(0).String() == "" {
		t.Error("invalid id must render a diagnostic")
	}
}

func TestSortCellIDs(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ids := make([]CellID, 5000)
	for i := range ids {
		p := geom.Point{X: rng.Float64()*360 - 180, Y: rng.Float64()*180 - 90}
		ids[i] = FromPoint(p).Parent(rng.Intn(MaxLevel + 1))
	}
	SortCellIDs(ids)
	for i := 1; i < len(ids); i++ {
		if ids[i-1] > ids[i] {
			t.Fatalf("not sorted at %d", i)
		}
	}
	// Degenerate inputs.
	SortCellIDs(nil)
	one := []CellID{FromPoint(geom.Point{X: 1, Y: 2})}
	SortCellIDs(one)
}

func TestPathAlignment(t *testing.T) {
	// Path() must left-align the Hilbert path: the first 2 bits of the path
	// of any cell below level 0 are its level-1 child position.
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 300; i++ {
		p := geom.Point{X: rng.Float64()*360 - 180, Y: rng.Float64()*180 - 90}
		c := FromPoint(p)
		top := int(c.Path() >> 62)
		if top != c.ChildPosition(1) {
			t.Fatalf("Path top bits = %d, ChildPosition(1) = %d", top, c.ChildPosition(1))
		}
	}
}

func TestFromFaceIJBitAlignment(t *testing.T) {
	// (i, j) low bits beyond the level must be ignored.
	a := FromFaceIJ(2, 0b1010<<26|0x3ffffff, 0b0110<<26|0x2abcdef, 4)
	b := FromFaceIJ(2, 0b1010<<26, 0b0110<<26, 4)
	if a != b {
		t.Errorf("low bits must not affect coarse cells: %v vs %v", a, b)
	}
}

func BenchmarkFromPoint(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	pts := make([]geom.Point, 1024)
	for i := range pts {
		pts[i] = geom.Point{X: rng.Float64()*360 - 180, Y: rng.Float64()*180 - 90}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = FromPoint(pts[i&1023])
	}
}

func BenchmarkBound(b *testing.B) {
	c := FromPoint(geom.Point{X: -73.97, Y: 40.75}).Parent(18)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = c.Bound()
	}
}

// leafCenter returns the lon/lat center of the leaf at (face, i, j): half a
// leaf (~1e-7°) from every edge, far beyond the float rounding of the
// conversion, so the kernel must map it back to exactly that leaf.
func leafCenter(face, i, j int) geom.Point {
	o := faceOrigin[face]
	return geom.Point{
		X: o.X + (float64(i)+0.5)*faceWidth/(1<<MaxLevel),
		Y: o.Y + (float64(j)+0.5)*faceHeight/(1<<MaxLevel),
	}
}

// TestFromFaceIJLeafMatchesGeneric checks the six-level hilbert6 kernel
// against the per-level FromFaceIJ encoding on random leaves and corners.
func TestFromFaceIJLeafMatchesGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	pts := make([]geom.Point, 0, 100000)
	var want []CellID
	for iter := 0; iter < 100000; iter++ {
		face := rng.Intn(NumFaces)
		i := rng.Intn(1 << MaxLevel)
		j := rng.Intn(1 << MaxLevel)
		pts = append(pts, leafCenter(face, i, j))
		want = append(want, FromFaceIJ(face, i, j, MaxLevel))
	}
	// Corners.
	for _, v := range []int{0, 1, 1<<MaxLevel - 1} {
		for face := 0; face < NumFaces; face++ {
			pts = append(pts, leafCenter(face, v, v))
			want = append(want, FromFaceIJ(face, v, v, MaxLevel))
		}
	}
	got := make([]CellID, len(pts))
	FromPoints(got, pts)
	for k := range pts {
		if got[k] != want[k] {
			t.Fatalf("FromPoints(%v) = %#x, want %#x", pts[k], uint64(got[k]), uint64(want[k]))
		}
	}
}
