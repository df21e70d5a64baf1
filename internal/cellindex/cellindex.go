// Package cellindex defines the common interface of the physical cell-id
// index structures the paper evaluates (ACT, the Google-B-tree stand-in, and
// the sorted vector): a map from the disjoint cells of a super covering to
// tagged entries, probed with leaf cell ids of query points.
//
// It also provides the shared input preparation: encoding a frozen super
// covering into (cell id, tagged entry) pairs plus the lookup table, which
// "is the same among all data structures that we evaluate" (Section 4.1).
package cellindex

import (
	"actjoin/internal/cellid"
	"actjoin/internal/refs"
	"actjoin/internal/supercover"
)

// RangeIndex is optionally implemented by physical structures that can
// report, along with a probe answer, the contiguous leaf-id range over which
// that answer stays valid: the extent of the cell — or false-hit gap — the
// probe resolved to, which may be one quad wider than the indexed slot when
// the neighbouring slots hold the same answer (ACT reports the slot cell's
// parent when all four of its children carry one entry). Batch joins use it
// to answer runs of points falling in the same cell without repeating the
// structure walk.
type RangeIndex interface {
	Index
	// FindRange returns Find(leaf) plus the inclusive leaf-id range
	// [lo, hi] containing leaf over which the returned entry is the answer.
	FindRange(leaf cellid.CellID) (e refs.Entry, lo, hi cellid.CellID)
}

// KeyEntry is one indexable pair.
type KeyEntry struct {
	Key   cellid.CellID
	Entry refs.Entry
}

// Index is the probe interface shared by all physical representations. Find
// returns the tagged entry of the unique super-covering cell containing the
// query leaf, or refs.FalseHit when no cell contains it.
type Index interface {
	Find(leaf cellid.CellID) refs.Entry
	// SizeBytes returns the in-memory footprint of the structure itself
	// (excluding the shared lookup table).
	SizeBytes() int
}

// Encode converts super-covering cells into index input and the shared
// lookup table. Cells must be sorted and disjoint (supercover.Cells output).
// Reference lists are normalized; up to two references are inlined into the
// tagged entry, longer lists are deduplicated into the table.
func Encode(cells []supercover.Cell) ([]KeyEntry, *refs.Table) {
	table := refs.NewTable()
	out := make([]KeyEntry, 0, len(cells))
	for _, c := range cells {
		rs := refs.Normalize(c.Refs)
		out = append(out, KeyEntry{Key: c.ID, Entry: table.Encode(rs)})
	}
	return out, table
}
