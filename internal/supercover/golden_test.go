package supercover

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"testing"

	"actjoin/internal/cellid"
	"actjoin/internal/dataset"
	"actjoin/internal/geom"
)

// Golden refinement digests pin the frozen covering that Build followed by
// RefineToPrecision produces for fixed inputs, in the manner of the golden
// coverings of internal/cover: a rewrite of the refinement descent that
// moves any cell or reference shows up here as a digest diff, without
// building a whole index.

// goldenRefineDigests holds, per input, the cell count and a sha256 prefix
// of the frozen cells (see cellsDigest).
var goldenRefineDigests = map[string]string{
	"testPolys/14": "1261 0df4c9ffac5c67af",
	"testPolys/16": "1262 05f675728e85c43e",
	"testPolys/17": "1419 6aaa6cbbe4992ec6",
	"nyc-tiny/4m":  "908703 4492e370fd4deccb",
	// Inputs of TestParallelRefinementEquivalence (see refineInputs).
	"hostile/4m":    "22210 2dc91e7c423d5db4",
	"four-faces/18": "261 f48424b8f0083ecc",
}

// cellsDigest renders a frozen covering as its cell count and the first 8
// bytes of the sha256 of every cell's id, reference count and references,
// little-endian.
func cellsDigest(cells []Cell) string {
	h := sha256.New()
	var b [8]byte
	for _, c := range cells {
		binary.LittleEndian.PutUint64(b[:], uint64(c.ID))
		h.Write(b[:])
		binary.LittleEndian.PutUint32(b[:4], uint32(len(c.Refs)))
		h.Write(b[:4])
		for _, r := range c.Refs {
			binary.LittleEndian.PutUint32(b[:4], uint32(r))
			h.Write(b[:4])
		}
	}
	return fmt.Sprintf("%d %s", len(cells), hex.EncodeToString(h.Sum(nil)[:8]))
}

// nycPrecisionLevel is the level the index derives for a 4 m bound over
// polys: the bound is evaluated at the latitude of the polygons' common
// bounding box center.
func nycPrecisionLevel(polys []*geom.Polygon) int {
	b := geom.EmptyRect()
	for _, p := range polys {
		b = b.Union(p.Bound())
	}
	return cellid.LevelForMaxDiagonalMeters(4, b.Center().Y)
}

func TestGoldenRefinement(t *testing.T) {
	check := func(name string, polys []*geom.Polygon, level int) {
		sc := Build(polys, DefaultOptions())
		sc.RefineToPrecision(polys, level)
		if got, want := cellsDigest(sc.Cells()), goldenRefineDigests[name]; got != want {
			t.Errorf("%s: refinement moved; got\n\t%q: %q,", name, name, got)
		}
	}
	for _, level := range []int{14, 16, 17} {
		check(fmt.Sprintf("testPolys/%d", level), testPolys(), level)
	}
	nyc := dataset.NYCNeighborhoods(dataset.ScaleTiny).Generate()
	check("nyc-tiny/4m", nyc, nycPrecisionLevel(nyc))
}
