package cellid

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"actjoin/internal/geom"
)

// fromPointRef is the direct formulation of the point → leaf conversion:
// the face from a truncating int conversion, the face rectangle's width and
// height as divisors, math.Floor onto the leaf grid, and the generic
// per-level FromFaceIJ encoding. FromPoint and FromPoints must reproduce it
// bit for bit.
func fromPointRef(p geom.Point) CellID {
	face := faceOfRef(p)
	fr := faceRectRef(face)
	s := (p.X - fr.Lo.X) / fr.Width()
	t := (p.Y - fr.Lo.Y) / fr.Height()
	return FromFaceIJ(face, stToIJRef(s), stToIJRef(t), MaxLevel)
}

func faceRectRef(face int) geom.Rect {
	col := face % 3
	row := face / 3
	return geom.Rect{
		Lo: geom.Point{X: -180 + 120*float64(col), Y: -90 + 90*float64(row)},
		Hi: geom.Point{X: -180 + 120*float64(col+1), Y: -90 + 90*float64(row+1)},
	}
}

func stToIJRef(s float64) int {
	v := int(math.Floor(s * (1 << MaxLevel)))
	if v < 0 {
		return 0
	}
	if v >= 1<<MaxLevel {
		return 1<<MaxLevel - 1
	}
	return v
}

// refPortable reports whether every float → int conversion fromPointRef
// makes on p is in range. Go leaves out-of-range conversions (NaN, ±Inf,
// magnitudes beyond int64) to the platform; the reference's result for such
// points is amd64's, which is what FromPoints states as its rule.
func refPortable(p geom.Point) bool {
	inRange := func(v float64) bool { return v >= -(1<<63) && v < 1<<63 }
	if !inRange((p.X + 180) / 120) {
		return false
	}
	fr := faceRectRef(faceOfRef(p))
	return inRange(math.Floor((p.X-fr.Lo.X)/fr.Width()*(1<<MaxLevel))) &&
		inRange(math.Floor((p.Y-fr.Lo.Y)/fr.Height()*(1<<MaxLevel)))
}

func faceOfRef(p geom.Point) int {
	col := int((p.X + 180) / 120)
	if col < 0 {
		col = 0
	} else if col > 2 {
		col = 2
	}
	row := 0
	if p.Y >= 0 {
		row = 1
	}
	return row*3 + col
}

// checkAgainstRef converts pts through FromPoints and FromPoint and fails
// on the first id that differs from fromPointRef.
func checkAgainstRef(t testing.TB, pts []geom.Point) {
	t.Helper()
	got := make([]CellID, len(pts))
	FromPoints(got, pts)
	cmp := runtime.GOARCH == "amd64"
	for k, p := range pts {
		if !cmp && !refPortable(p) {
			continue
		}
		want := fromPointRef(p)
		if got[k] != want {
			t.Fatalf("FromPoints(%v (%#x, %#x)) = %v, want %v",
				p, math.Float64bits(p.X), math.Float64bits(p.Y), got[k], want)
		}
		if one := FromPoint(p); one != want {
			t.Fatalf("FromPoint(%v) = %v, want %v", p, one, want)
		}
	}
}

func TestFromPointMatchesRef(t *testing.T) {
	const total, batch = 6 << 20, 1 << 16
	rng := rand.New(rand.NewSource(41))
	pts := make([]geom.Point, batch)
	for done := 0; done < total; done += batch {
		local := done%(2*batch) != 0 // alternate world-wide and NYC batches
		for k := range pts {
			if local {
				pts[k] = geom.Point{X: -74.3 + rng.Float64()*0.6, Y: 40.45 + rng.Float64()*0.5}
			} else {
				pts[k] = geom.Point{X: rng.Float64()*360 - 180, Y: rng.Float64()*180 - 90}
			}
		}
		checkAgainstRef(t, pts)
	}
}

// edgeCoords are coordinates where the conversion changes face, clamps,
// or leaves the finite range.
func edgeCoords() []float64 {
	var out []float64
	for _, v := range []float64{-180, -90, -60, 0, 60, 90, 180} {
		out = append(out, v, math.Nextafter(v, math.Inf(-1)), math.Nextafter(v, math.Inf(1)))
	}
	sub := math.SmallestNonzeroFloat64
	return append(out,
		math.Copysign(0, -1), sub, -sub, 0x1p-1022, -0x1p-1022, 0x1p-1030,
		-180.5, 180.5, -90.5, 90.5, 999, -999,
		1e21, -1e21, 1e300, -1e300, math.MaxFloat64, -math.MaxFloat64,
		math.NaN(), math.Inf(1), math.Inf(-1))
}

func TestFromPointEdgesMatchRef(t *testing.T) {
	coords := edgeCoords()
	var pts []geom.Point
	for _, x := range coords {
		for _, y := range coords {
			pts = append(pts, geom.Point{X: x, Y: y})
		}
	}
	checkAgainstRef(t, pts)
	for _, p := range pts {
		if c := FromPoint(p); !c.IsValid() || !c.IsLeaf() {
			t.Fatalf("FromPoint(%v) = %#x, not a valid leaf", p, uint64(c))
		}
	}
}

// TestFromPointNonFinite pins the documented rule for coordinates no int64
// holds, independently of the platform the reference runs on.
func TestFromPointNonFinite(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		p    geom.Point
		want CellID
	}{
		{geom.Point{X: nan, Y: nan}, FromFaceIJ(0, 0, 0, MaxLevel)},
		{geom.Point{X: inf, Y: 0}, FromFaceIJ(3, 0, 0, MaxLevel)},
		{geom.Point{X: -inf, Y: -inf}, FromFaceIJ(0, 0, 0, MaxLevel)},
		{geom.Point{X: 0, Y: inf}, FromFaceIJ(4, 1<<29, 0, MaxLevel)},
		{geom.Point{X: 0, Y: nan}, FromFaceIJ(1, 1<<29, 0, MaxLevel)},
		{geom.Point{X: 1e300, Y: 10}, FromFaceIJ(3, 0, 1<<MaxLevel/9, MaxLevel)},
		{geom.Point{X: 999, Y: 999}, FromFaceIJ(5, 1<<MaxLevel-1, 1<<MaxLevel-1, MaxLevel)},
	}
	for _, c := range cases {
		if got := FromPoint(c.p); got != c.want {
			t.Errorf("FromPoint(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

// FuzzFromPoint compares the kernel with the reference on arbitrary
// coordinate bit patterns; the seed corpus in testdata/fuzz/FuzzFromPoint
// holds the face seams, clamped corners, subnormals and non-finite values.
func FuzzFromPoint(f *testing.F) {
	f.Fuzz(func(t *testing.T, x, y float64) {
		p := geom.Point{X: x, Y: y}
		checkAgainstRef(t, []geom.Point{p})
		if c := FromPoint(p); !c.IsValid() || !c.IsLeaf() {
			t.Fatalf("FromPoint(%v) = %#x, not a valid leaf", p, uint64(c))
		}
	})
}

func BenchmarkFromPoints(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	pts := make([]geom.Point, 1024)
	for i := range pts {
		pts[i] = geom.Point{X: rng.Float64()*360 - 180, Y: rng.Float64()*180 - 90}
	}
	dst := make([]CellID, len(pts))
	b.ResetTimer()
	for i := 0; i < b.N; i += len(pts) {
		FromPoints(dst, pts)
	}
}
