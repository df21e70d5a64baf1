// Package cellid implements the hierarchical grid substrate of the paper: a
// quadtree decomposition of the world into 64-bit cell identifiers whose
// child cells share a bitwise prefix with their parent, enumerated along a
// Hilbert space-filling curve (Section 2, "Location Discretization").
//
// The encoding mirrors Google S2's CellId layout:
//
//	id = face(3 bits) | path(2 bits per level) | 1 | 0...0
//
// i.e. the three most significant bits select one of six faces, each level
// appends two Hilbert-position bits, and a single sentinel bit marks the
// level. Cell ids at the same level are ordered along the Hilbert curve, and
// a parent's id is numerically centered within its children's range, which
// makes range-based containment (RangeMin/RangeMax) work on sorted ids.
//
// Unlike S2 we project the world with a planar equirectangular mapping: the
// six faces are 120°x90° lon/lat tiles (3 columns x 2 rows). The paper
// explicitly notes its approach works with any quadtree-based hierarchical
// space partitioning with prefix-preserving enumeration; see DESIGN.md.
package cellid

import (
	"fmt"
	"math"
	"math/bits"

	"actjoin/internal/geom"
)

// MaxLevel is the deepest quadtree level. A level-30 cell is the "leaf"
// granularity at which query points are represented.
const MaxLevel = 30

// NumFaces is the number of top-level face tiles.
const NumFaces = 6

// faceBits is the number of id bits used for the face number.
const faceBits = 3

// posBits is the number of id bits below the face: 2 per level plus the
// sentinel bit.
const posBits = 2*MaxLevel + 1

// CellID identifies a quadtree cell. The zero value is invalid.
type CellID uint64

// Hilbert curve lookup tables (the classic 4-entry formulation). ijToPos
// maps the 2-bit (i,j) quadrant of a child to its position along the curve
// for a given orientation; posToIJ is the inverse; posToOrient is the
// orientation change applied when descending into a child.
const (
	swapMask   = 0x01
	invertMask = 0x02
)

var posToIJ = [4][4]uint32{
	{0, 1, 3, 2}, // canonical order
	{0, 2, 3, 1}, // axes swapped
	{3, 2, 0, 1}, // axes inverted
	{3, 1, 0, 2}, // swapped & inverted
}

var posToOrient = [4]uint32{swapMask, 0, 0, invertMask | swapMask}

var ijToPos [4][4]uint32

// lookupLevels is the number of quadtree levels one hilbert6 step encodes;
// MaxLevel is a multiple of it, so a leaf takes MaxLevel/lookupLevels steps.
const lookupLevels = 6

// hilbert6 accelerates leaf encoding by consuming six quadtree levels per
// lookup (the S2 lookup-table technique, widened): index = i6<<8 | j6<<2 |
// orient (the six-bit (i, j) digits of one step plus the incoming
// orientation), value = pos12<<2 | outgoing orientation. The 2^14 uint16
// entries (32 KiB) stay L1-resident across a probe batch, and a leaf costs
// five dependent lookups.
var hilbert6 [1 << (2*lookupLevels + 2)]uint16

func init() {
	for orient := 0; orient < 4; orient++ {
		for pos := 0; pos < 4; pos++ {
			ijToPos[orient][posToIJ[orient][pos]] = uint32(pos)
		}
	}
	for i6 := 0; i6 < 1<<lookupLevels; i6++ {
		for j6 := 0; j6 < 1<<lookupLevels; j6++ {
			for orient := uint32(0); orient < 4; orient++ {
				var pos uint32
				o := orient
				for k := lookupLevels - 1; k >= 0; k-- {
					ij := uint32((i6>>k)&1)<<1 | uint32((j6>>k)&1)
					p := ijToPos[o][ij]
					pos = pos<<2 | p
					o ^= posToOrient[p]
				}
				hilbert6[uint32(i6)<<8|uint32(j6)<<2|orient] = uint16(pos<<2 | o)
			}
		}
	}
}

// Every face tile spans faceWidth x faceHeight degrees; faceOrigin holds
// each tile's minimum lon/lat corner (3 columns x 2 rows).
const (
	faceWidth  = 120
	faceHeight = 90
)

var faceOrigin = [NumFaces]geom.Point{
	{X: -180, Y: -90}, {X: -60, Y: -90}, {X: 60, Y: -90},
	{X: -180, Y: 0}, {X: -60, Y: 0}, {X: 60, Y: 0},
}

// faceRect returns the lon/lat extent of the given face tile.
func faceRect(face int) geom.Rect {
	lo := faceOrigin[face]
	return geom.Rect{Lo: lo, Hi: geom.Point{X: lo.X + faceWidth, Y: lo.Y + faceHeight}}
}

// FaceRect returns the lon/lat extent of face (0..5).
func FaceRect(face int) geom.Rect {
	if face < 0 || face >= NumFaces {
		panic(fmt.Sprintf("cellid: invalid face %d", face))
	}
	return faceRect(face)
}

// FromFaceIJ assembles the cell at the given level whose leaf-grid
// coordinates within face are (i, j); i and j are interpreted at leaf
// resolution (MaxLevel bits) and must be aligned to the level's cell size
// only in the sense that lower bits are ignored.
func FromFaceIJ(face, i, j, level int) CellID {
	var pos uint64
	orient := uint32(0)
	for k := MaxLevel - 1; k >= MaxLevel-level; k-- {
		ij := uint32((i>>k)&1)<<1 | uint32((j>>k)&1)
		p := ijToPos[orient][ij]
		pos = pos<<2 | uint64(p)
		orient ^= posToOrient[p]
	}
	// Shift the path to the top of the 61-bit field and set the sentinel.
	shift := uint(posBits - 2*level)
	id := uint64(face)<<posBits | pos<<shift | 1<<(shift-1)
	return CellID(id)
}

// FromPoint returns the leaf cell (level MaxLevel) containing the lon/lat
// point p. Points outside the world rect are clamped; see FromPoints for
// the exact conversion rules.
//
//act:hotpath
func FromPoint(p geom.Point) CellID {
	var c [1]CellID
	FromPoints(c[:], []geom.Point{p})
	return c[0]
}

// FromPoints stores the leaf cell of src[k] into dst[k] for every k; dst
// must be at least as long as src. It is the batch join's conversion
// kernel: per point, a face pick by comparison, one subtraction and one
// division per axis against the face-origin table, and five hilbert6
// lookups.
//
// The face column is the truncation of (lon+180)/120 clamped to 0..2, the
// row is 1 for lat >= 0, and the in-face coordinates (lon-lo)/120 and
// (lat-lo)/90 are scaled to the leaf grid, truncated, and clamped to
// [0, 2^MaxLevel). A quotient that is NaN, infinite or at least 2^63 —
// anything an int64 cannot hold — counts as below range and clamps to 0
// (column 0, grid coordinate 0), so NaN or ±Inf coordinates land in a
// face's first column or row instead of on a platform-dependent float→int
// conversion.
//
//act:hotpath
func FromPoints(dst []CellID, src []geom.Point) {
	dst = dst[:len(src)]
	for k, p := range src {
		u := (p.X + 180) / faceWidth
		face := 0
		if u >= 1 && u < 1<<63 {
			face = 1
			if u >= 2 {
				face = 2
			}
		}
		if p.Y >= 0 {
			face += 3
		}
		o := faceOrigin[face]
		i := stToIJ((p.X - o.X) / faceWidth)
		j := stToIJ((p.Y - o.Y) / faceHeight)
		v := hilbert6[(i>>24&63)<<8|(j>>24&63)<<2]
		pos := uint64(v >> 2)
		v = hilbert6[(i>>18&63)<<8|(j>>18&63)<<2|uint32(v&3)]
		pos = pos<<12 | uint64(v>>2)
		v = hilbert6[(i>>12&63)<<8|(j>>12&63)<<2|uint32(v&3)]
		pos = pos<<12 | uint64(v>>2)
		v = hilbert6[(i>>6&63)<<8|(j>>6&63)<<2|uint32(v&3)]
		pos = pos<<12 | uint64(v>>2)
		v = hilbert6[(i&63)<<8|(j&63)<<2|uint32(v&3)]
		dst[k] = CellID(uint64(face)<<posBits | (pos<<12|uint64(v>>2))<<1 | 1)
	}
}

// stToIJ converts a face coordinate in [0,1] to a leaf-grid integer in
// [0, 2^MaxLevel), truncating. Out-of-range values clamp; a scaled value
// that is NaN or does not fit an int64 clamps to 0 (see FromPoints).
func stToIJ(s float64) uint32 {
	v := s * (1 << MaxLevel)
	switch {
	case v >= 0 && v < 1<<MaxLevel:
		return uint32(v)
	case v >= 1<<MaxLevel && v < 1<<63:
		return 1<<MaxLevel - 1
	}
	return 0
}

// IsValid reports whether id is a well-formed cell id: valid face and a
// sentinel bit in an even position.
func (c CellID) IsValid() bool {
	return c.Face() < NumFaces && c != 0 && (uint64(c)&0x1555555555555555) != 0 &&
		bits.TrailingZeros64(uint64(c))%2 == 0
}

// Face returns the face number (0..5) of the cell.
func (c CellID) Face() int { return int(uint64(c) >> posBits) }

// Level returns the subdivision level of the cell (0 = face cell).
func (c CellID) Level() int {
	return MaxLevel - bits.TrailingZeros64(uint64(c))/2
}

// IsLeaf reports whether the cell is at MaxLevel.
func (c CellID) IsLeaf() bool { return uint64(c)&1 != 0 }

// RangeMin returns the smallest leaf cell id contained in c.
func (c CellID) RangeMin() CellID { return CellID(uint64(c) - (lsb64(uint64(c)) - 1)) }

// RangeMax returns the largest leaf cell id contained in c.
func (c CellID) RangeMax() CellID { return CellID(uint64(c) + (lsb64(uint64(c)) - 1)) }

func lsb64(v uint64) uint64 { return v & -v }

// Contains reports whether c contains o (equivalently, whether c is an
// ancestor of o or equal to it).
func (c CellID) Contains(o CellID) bool {
	return o >= c.RangeMin() && o <= c.RangeMax()
}

// Intersects reports whether the two cells overlap (one contains the other).
func (c CellID) Intersects(o CellID) bool {
	return o.RangeMin() <= c.RangeMax() && o.RangeMax() >= c.RangeMin()
}

// Parent returns the ancestor cell at the given level, which must be
// between 0 and c.Level(). It keeps the shared path prefix, places the
// sentinel bit at the coarser level and zeroes everything below it.
func (c CellID) Parent(level int) CellID {
	l := lsbForLevel(level)
	return CellID(uint64(c) & ^(l<<1-1) | l)
}

// lsbForLevel returns the sentinel bit value for a cell at the given level.
func lsbForLevel(level int) uint64 { return 1 << uint(2*(MaxLevel-level)) }

// ImmediateParent returns the parent one level up.
func (c CellID) ImmediateParent() CellID { return c.Parent(c.Level() - 1) }

// Children returns the four children of c in Hilbert order. Must not be
// called on leaf cells.
func (c CellID) Children() [4]CellID {
	lsb := lsb64(uint64(c))
	clsb := lsb >> 2
	var out [4]CellID
	for i := uint64(0); i < 4; i++ {
		out[i] = CellID(uint64(c) - lsb + clsb + i*(clsb<<1))
	}
	return out
}

// Child returns the i-th child (Hilbert order) of c.
func (c CellID) Child(i int) CellID {
	lsb := lsb64(uint64(c))
	clsb := lsb >> 2
	return CellID(uint64(c) - lsb + clsb + uint64(i)*(clsb<<1))
}

// ChildPosition returns which child of its level-(level-1) ancestor the
// cell's level-`level` ancestor is (a 2-bit Hilbert position).
func (c CellID) ChildPosition(level int) int {
	return int(uint64(c)>>uint(2*(MaxLevel-level)+1)) & 3
}

// Path returns the cell's Hilbert path bits left-aligned in a uint64: the
// face is stripped and the remaining 2*Level() path bits occupy the most
// significant positions. ACT consumes lookup keys from this form.
func (c CellID) Path() uint64 { return uint64(c) << faceBits }

// CommonAncestor returns the deepest cell containing both a and b, and
// false when they share no ancestor (different faces). The publish pipeline
// uses it to merge spatially adjacent dirty regions into one coarser one.
func CommonAncestor(a, b CellID) (CellID, bool) {
	if a.Face() != b.Face() {
		return 0, false
	}
	level := bits.LeadingZeros64(a.Path()^b.Path()) / 2
	if al := a.Level(); al < level {
		level = al
	}
	if bl := b.Level(); bl < level {
		level = bl
	}
	return a.Parent(level), true
}

// faceIJ decodes the cell into face, leaf-aligned (i, j) of its minimum
// corner, level, and the Hilbert orientation its children are laid out in.
func (c CellID) faceIJ() (face, i, j, level int, orient uint32) {
	face = c.Face()
	level = c.Level()
	pos := uint64(c) & (1<<posBits - 1)
	var ci, cj int
	for k := 0; k < level; k++ {
		shift := uint(posBits - 2*(k+1))
		p := uint32(pos>>shift) & 3
		ij := posToIJ[orient][p]
		ci = ci<<1 | int(ij>>1)
		cj = cj<<1 | int(ij&1)
		orient ^= posToOrient[p]
	}
	i = ci << uint(MaxLevel-level)
	j = cj << uint(MaxLevel-level)
	return face, i, j, level, orient
}

// Bound returns the lon/lat rectangle covered by the cell.
func (c CellID) Bound() geom.Rect {
	face, i, j, level, _ := c.faceIJ()
	return faceIJBound(faceRect(face), i, j, 1<<uint(MaxLevel-level))
}

// faceIJBound is the lon/lat rectangle of the size×size leaf block at
// leaf-grid (i, j) of the face tile fr.
func faceIJBound(fr geom.Rect, i, j, size int) geom.Rect {
	scaleX := fr.Width() / (1 << MaxLevel)
	scaleY := fr.Height() / (1 << MaxLevel)
	return geom.Rect{
		Lo: geom.Point{X: fr.Lo.X + float64(i)*scaleX, Y: fr.Lo.Y + float64(j)*scaleY},
		Hi: geom.Point{X: fr.Lo.X + float64(i+size)*scaleX, Y: fr.Lo.Y + float64(j+size)*scaleY},
	}
}

// ChildBounds returns the bounds of c's four children in Hilbert order,
// bit-identical to c.Child(k).Bound() for each k. It decodes c's path once
// and places each child's (i, j) from the parent's orientation, where four
// Child(k).Bound() calls decode the whole path four times: the per-split
// cost of refinement. Must not be called on leaf cells.
//
//act:hotpath
func (c CellID) ChildBounds() [4]geom.Rect {
	face, i, j, level, orient := c.faceIJ()
	fr := faceRect(face)
	size := 1 << uint(MaxLevel-level-1)
	var out [4]geom.Rect
	for k := range out {
		ij := posToIJ[orient][k]
		out[k] = faceIJBound(fr, i+int(ij>>1)*size, j+int(ij&1)*size, size)
	}
	return out
}

// Center returns the lon/lat center point of the cell.
func (c CellID) Center() geom.Point { return c.Bound().Center() }

// FaceCell returns the level-0 cell for the given face.
func FaceCell(face int) CellID {
	return CellID(uint64(face)<<posBits | 1<<(posBits-1))
}

// String renders the id as face/child-position path, e.g. "2/0312".
func (c CellID) String() string {
	if !c.IsValid() {
		return fmt.Sprintf("Invalid(%#x)", uint64(c))
	}
	s := fmt.Sprintf("%d/", c.Face())
	for l := 1; l <= c.Level(); l++ {
		s += string(rune('0' + c.ChildPosition(l)))
	}
	return s
}

// DiagonalMeters returns the ground length of the cell's diagonal.
func (c CellID) DiagonalMeters() float64 {
	return geom.RectDiagonalMeters(c.Bound())
}

// LevelForMaxDiagonalMeters returns the smallest level whose cells have a
// diagonal of at most the given bound (in meters) at the reference latitude.
// This implements the paper's precision-to-level mapping: a point matching a
// boundary cell at this level is within `bound` meters of the polygon.
func LevelForMaxDiagonalMeters(bound, latDeg float64) int {
	for level := 0; level <= MaxLevel; level++ {
		w := 120.0 / float64(uint64(1)<<uint(level)) * geom.MetersPerDegreeLon(latDeg)
		h := 90.0 / float64(uint64(1)<<uint(level)) * geom.MetersPerDegreeLat
		if math.Hypot(w, h) <= bound {
			return level
		}
	}
	return MaxLevel
}

// SortCellIDs sorts ids in place in ascending (Hilbert) order.
func SortCellIDs(ids []CellID) {
	// Simple in-package sort to avoid pulling interfaces into hot paths.
	quickSortIDs(ids)
}

func quickSortIDs(a []CellID) {
	for len(a) > 12 {
		p := medianOfThree(a)
		i, j := 0, len(a)-1
		for i <= j {
			for a[i] < p {
				i++
			}
			for a[j] > p {
				j--
			}
			if i <= j {
				a[i], a[j] = a[j], a[i]
				i++
				j--
			}
		}
		if j > len(a)-i {
			quickSortIDs(a[i:])
			a = a[:j+1]
		} else {
			quickSortIDs(a[:j+1])
			a = a[i:]
		}
	}
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}

func medianOfThree(a []CellID) CellID {
	lo, mid, hi := a[0], a[len(a)/2], a[len(a)-1]
	if lo > mid {
		lo, mid = mid, lo
	}
	if mid > hi {
		mid = hi
	}
	if lo > mid {
		mid = lo
	}
	return mid
}
