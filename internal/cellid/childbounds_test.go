package cellid

import (
	"math/rand"
	"testing"
)

// cellFromBits assembles the cell on face%NumFaces at level%MaxLevel (so
// never a leaf) whose Hilbert path is the top bits of path.
func cellFromBits(face uint8, level uint8, path uint64) CellID {
	f := int(face) % NumFaces
	l := int(level) % MaxLevel
	shift := uint(posBits - 2*l)
	var p uint64
	if l > 0 {
		p = path >> uint(64-2*l)
	}
	return CellID(uint64(f)<<posBits | p<<shift | 1<<(shift-1))
}

// checkChildBounds fails unless ChildBounds equals the per-child Bound of
// every child bit for bit.
func checkChildBounds(t *testing.T, c CellID) {
	t.Helper()
	got := c.ChildBounds()
	for k := 0; k < 4; k++ {
		if want := c.Child(k).Bound(); got[k] != want {
			t.Fatalf("%v: ChildBounds()[%d] = %v, Child(%d).Bound() = %v", c, k, got[k], k, want)
		}
	}
}

// TestChildBoundsMatchesChildBound checks ChildBounds against Child(k).Bound
// on every face at every non-leaf level, on random paths.
func TestChildBoundsMatchesChildBound(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for face := uint8(0); face < NumFaces; face++ {
		for level := uint8(0); level < MaxLevel; level++ {
			for n := 0; n < 16; n++ {
				c := cellFromBits(face, level, rng.Uint64())
				if !c.IsValid() || c.Level() != int(level) || c.Face() != int(face) {
					t.Fatalf("cellFromBits(%d, %d) = %v", face, level, c)
				}
				checkChildBounds(t, c)
			}
		}
	}
}

// FuzzChildBounds compares ChildBounds with Child(k).Bound on arbitrary
// non-leaf cells; the seed corpus in testdata/fuzz/FuzzChildBounds holds
// face cells and level MaxLevel-1 cells on the all-zero and all-one paths.
func FuzzChildBounds(f *testing.F) {
	f.Fuzz(func(t *testing.T, face, level uint8, path uint64) {
		checkChildBounds(t, cellFromBits(face, level, path))
	})
}
