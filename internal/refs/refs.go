// Package refs implements the polygon-reference and tagged-entry encoding
// shared by ACT and all baseline index structures (Section 3.1.2 of the
// paper).
//
// A polygon reference is a 31-bit value: 30 bits of polygon id plus one
// "interior" bit distinguishing true hits (the point is certainly inside the
// polygon) from candidate hits (the cell intersects the polygon boundary, so
// refinement or the approximate answer is needed).
//
// A tagged entry is the 8-byte combined pointer/value slot: its two least
// significant bits select among (i) a child pointer or the sentinel false
// hit — only used inside ACT nodes, (ii) one inlined reference, (iii) two
// inlined references, (iv) an offset into the shared lookup table holding
// three or more references.
package refs

import (
	"encoding/binary"
	"fmt"
	"slices"
)

// MaxPolygonID is the largest encodable polygon id (30 bits, i.e. up to 2^30
// polygons, as in the paper).
const MaxPolygonID = 1<<30 - 1

// Ref is a 31-bit polygon reference. Bit 0 is the interior (true-hit) flag,
// bits 1..30 the polygon id.
type Ref uint32

// MakeRef builds a reference. Panics if id exceeds MaxPolygonID, which would
// silently corrupt the encoding otherwise.
func MakeRef(id uint32, interior bool) Ref {
	if id > MaxPolygonID {
		panic(fmt.Sprintf("refs: polygon id %d exceeds 30 bits", id))
	}
	r := Ref(id << 1)
	if interior {
		r |= 1
	}
	return r
}

// PolygonID returns the 30-bit polygon id.
func (r Ref) PolygonID() uint32 { return uint32(r) >> 1 }

// Interior reports whether the reference is a true hit.
func (r Ref) Interior() bool { return r&1 != 0 }

// String formats the reference as kind(id) for test output.
func (r Ref) String() string {
	kind := "cand"
	if r.Interior() {
		kind = "true"
	}
	return fmt.Sprintf("p%d/%s", r.PolygonID(), kind)
}

// Normalize sorts refs and collapses duplicates. When the same polygon
// appears both as a candidate and as a true hit, the true hit wins: the cell
// is inside an interior-covering cell of that polygon, so containment is
// certain. It allocates nothing: the write path (refinement, region
// re-emit, encode) calls it once per cell.
//
//act:mutates 0
//act:hotpath
func Normalize(in []Ref) []Ref {
	if len(in) <= 1 {
		return in
	}
	slices.Sort(in)
	out := in[:1]
	for _, r := range in[1:] {
		last := &out[len(out)-1]
		if r == *last {
			continue
		}
		if r.PolygonID() == last.PolygonID() {
			// Same polygon: the interior ref sorts after the candidate ref,
			// so overwrite with the stronger claim.
			*last = r
			continue
		}
		out = append(out, r)
	}
	return out
}

// Entry tag values (two least significant bits of a tagged entry).
const (
	TagPointer = 0 // ACT-internal: child pointer, or 0 = sentinel false hit
	TagOneRef  = 1
	TagTwoRefs = 2
	TagOffset  = 3
)

// Entry is a tagged 8-byte slot.
type Entry uint64

// FalseHit is the sentinel entry meaning "no polygon here".
const FalseHit Entry = 0

// Tag returns the entry's tag bits.
func (e Entry) Tag() int { return int(e & 3) }

// IsFalseHit reports whether the entry is the sentinel.
func (e Entry) IsFalseHit() bool { return e == FalseHit }

// oneRef builds a TagOneRef entry.
func oneRef(r Ref) Entry { return Entry(uint64(r)<<2 | TagOneRef) }

// twoRefs builds a TagTwoRefs entry.
func twoRefs(a, b Ref) Entry {
	return Entry(uint64(a)<<2 | uint64(b)<<33 | TagTwoRefs)
}

// offsetEntry builds a TagOffset entry.
func offsetEntry(off uint32) Entry { return Entry(uint64(off)<<2 | TagOffset) }

// Ref1 returns the first inlined reference (valid for TagOneRef/TagTwoRefs).
func (e Entry) Ref1() Ref { return Ref(uint64(e)>>2) & 0x7FFFFFFF }

// Ref2 returns the second inlined reference (valid for TagTwoRefs).
func (e Entry) Ref2() Ref { return Ref(uint64(e) >> 33) }

// Offset returns the lookup-table offset (valid for TagOffset).
func (e Entry) Offset() uint32 { return uint32(uint64(e) >> 2) }

// Table is the shared lookup table for cells referencing three or more
// polygons. It is encoded as a single uint32 array: each record is the
// number of true hits, the true-hit polygon ids, the number of candidate
// hits, and the candidate polygon ids (Section 3.1.2, "Lookup Table").
// Identical reference lists are stored once.
type Table struct {
	data  []uint32
	dedup map[string]uint32
}

// NewTable returns an empty lookup table.
func NewTable() *Table {
	return &Table{dedup: make(map[string]uint32)}
}

// Freeze returns a read-only view of the table's current contents. The view
// shares the backing array but pins its own length, so later Encode calls on
// the live table — which only ever append — can run concurrently with reads
// of the view: appended words lie beyond every frozen view's length, and a
// growth reallocation leaves old views on the old array. Freeze views must
// not be encoded into.
//
//act:frozen
func (t *Table) Freeze() *Table {
	return &Table{data: t.data[:len(t.data):len(t.data)]}
}

// RecordLen returns the number of uint32 words occupied by the record at the
// given offset (as produced by Encode for 3+ reference lists).
func (t *Table) RecordLen(off uint32) int {
	nTrue := t.data[off]
	nCand := t.data[off+1+nTrue]
	return int(2 + nTrue + nCand)
}

// SizeBytes returns the encoded size of the table's payload array.
func (t *Table) SizeBytes() int { return 4 * len(t.data) }

// Len returns the number of uint32 words in the table.
func (t *Table) Len() int { return len(t.data) }

// Data exposes the raw encoded array (read-only use).
func (t *Table) Data() []uint32 { return t.data }

// Encode turns a normalized reference list into a tagged entry, inlining up
// to two references and spilling longer lists into the table (deduplicated).
// Empty lists encode as the FalseHit sentinel.
func (t *Table) Encode(list []Ref) Entry {
	switch len(list) {
	case 0:
		return FalseHit
	case 1:
		return oneRef(list[0])
	case 2:
		return twoRefs(list[0], list[1])
	}

	var trueHits, candHits []uint32
	for _, r := range list {
		if r.Interior() {
			trueHits = append(trueHits, r.PolygonID())
		} else {
			candHits = append(candHits, r.PolygonID())
		}
	}
	rec := make([]uint32, 0, 2+len(list))
	rec = append(rec, uint32(len(trueHits)))
	rec = append(rec, trueHits...)
	rec = append(rec, uint32(len(candHits)))
	rec = append(rec, candHits...)

	key := recordKey(rec)
	if off, ok := t.dedup[key]; ok {
		return offsetEntry(off)
	}
	off := uint32(len(t.data))
	t.data = append(t.data, rec...)
	t.dedup[key] = off
	return offsetEntry(off)
}

func recordKey(rec []uint32) string {
	b := make([]byte, 4*len(rec))
	for i, v := range rec {
		binary.LittleEndian.PutUint32(b[4*i:], v)
	}
	return string(b)
}

// AppendRefs decodes the entry's references into dst and returns it. For
// TagOffset entries the table is consulted.
func (t *Table) AppendRefs(dst []Ref, e Entry) []Ref {
	switch e.Tag() {
	case TagPointer:
		return dst
	case TagOneRef:
		return append(dst, e.Ref1())
	case TagTwoRefs:
		return append(dst, e.Ref1(), e.Ref2())
	}
	off := e.Offset()
	nTrue := t.data[off]
	i := off + 1
	for k := uint32(0); k < nTrue; k++ {
		dst = append(dst, MakeRef(t.data[i], true))
		i++
	}
	nCand := t.data[i]
	i++
	for k := uint32(0); k < nCand; k++ {
		dst = append(dst, MakeRef(t.data[i], false))
		i++
	}
	return dst
}

// Visit calls fn for each reference in the entry without allocating.
//
//act:hotpath
func (t *Table) Visit(e Entry, fn func(Ref)) {
	switch e.Tag() {
	case TagPointer:
		return
	case TagOneRef:
		fn(e.Ref1())
		return
	case TagTwoRefs:
		fn(e.Ref1())
		fn(e.Ref2())
		return
	}
	off := e.Offset()
	nTrue := t.data[off]
	i := off + 1
	for k := uint32(0); k < nTrue; k++ {
		fn(MakeRef(t.data[i], true))
		i++
	}
	nCand := t.data[i]
	i++
	for k := uint32(0); k < nCand; k++ {
		fn(MakeRef(t.data[i], false))
		i++
	}
}

// NumRecords returns how many distinct reference lists the table stores.
func (t *Table) NumRecords() int { return len(t.dedup) }
