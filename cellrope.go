package actjoin

import (
	"slices"
	"sort"

	"actjoin/internal/cellid"
	"actjoin/internal/supercover"
)

// cellRope is a snapshot's frozen cell list: sorted, disjoint runs of cells
// held in a persistent B+-tree of fixed fanout. Leaves hold the runs; every
// entry records its subtree's cell count and last cell id, so a rank, a
// range count or the search for a region's first cell costs O(height), not
// O(runs).
//
// Incremental publishes splice the next snapshot out of the previous one by
// path copying: only the nodes on the paths to the edited regions are
// copied, and every other subtree, run and cell — reference lists included —
// is shared with the previous rope. A publish therefore costs O(regions ·
// height) run headers, however fragmented the rope is, and no publish copies
// a cell it did not change. Nodes, runs and cells are immutable once
// published.
//
// Each run points at a small header naming the length of the backing array
// it views. Compaction re-packs the runs of arrays that the rope covers less
// than half of (repack), which bounds the dead cells a rope retains by the
// cells it holds; every other run stays shared.
//
// No file but this one knows how the runs are stored: callers walk them
// through eachRun, rangeRuns and appendAll.
type cellRope struct {
	top ropeEntry // the root's entry; top.kid is nil for an empty rope
}

// ropeFanout is the most entries a node holds; every node but the root holds
// at least ropeMinFill, so the height is O(log runs).
const (
	ropeFanout  = 32
	ropeMinFill = ropeFanout / 2
)

// ropeNode is one tree node: its entries are runs in a leaf, subtrees
// otherwise.
type ropeNode struct {
	leaf bool
	ents []ropeEntry
}

// ropeEntry is one slot of a node: a subtree (inner nodes) or a run (leaves),
// with the cell count and last cell id the descent routes on.
type ropeEntry struct {
	size int
	last cellid.CellID
	kid  *ropeNode
	run  []supercover.Cell // leaves: never empty
	arr  *ropeArray        // leaves: run's backing array
}

// ropeArray is the header shared by every run viewing one backing array.
type ropeArray struct {
	cells int // the array's length (capacity), in cells
}

// ropeEdit replaces a rope's cells with lo <= ID <= hi by the splice
// buffer's cells [from, to): sorted, inside [lo, hi], possibly none.
type ropeEdit struct {
	lo, hi   cellid.CellID
	from, to int
}

// ropeSplice is one splice's buffer and the header of its array.
type ropeSplice struct {
	buf []supercover.Cell
	arr *ropeArray
}

// ropeFromCells wraps an owned, sorted cell slice.
func ropeFromCells(cells []supercover.Cell) *cellRope {
	if len(cells) == 0 {
		return &cellRope{}
	}
	return ropeOf([]ropeEntry{runEntry(cells, &ropeArray{cells: cap(cells)})}, true)
}

// runEntry is the leaf entry of a non-empty run.
func runEntry(run []supercover.Cell, arr *ropeArray) ropeEntry {
	return ropeEntry{size: len(run), last: run[len(run)-1].ID, run: run, arr: arr}
}

// nodeEntry is the parent entry of a non-empty node.
func nodeEntry(n *ropeNode) ropeEntry {
	size := 0
	for i := range n.ents {
		size += n.ents[i].size
	}
	return ropeEntry{size: size, last: n.ents[len(n.ents)-1].last, kid: n}
}

// ropeOf builds the rope whose entries at one level are level (runs when
// leaf): it packs level after level up to a single root, then drops
// single-child roots. level is owned; the nodes keep its storage.
func ropeOf(level []ropeEntry, leaf bool) *cellRope {
	if len(level) == 0 {
		return &cellRope{}
	}
	for leaf || len(level) > 1 {
		level = pack(level, leaf, nil)
		leaf = false
	}
	top := level[0]
	for !top.kid.leaf && len(top.kid.ents) == 1 {
		top = top.kid.ents[0]
	}
	return &cellRope{top: top}
}

// pack groups level's entries into as few nodes as the fanout allows, filled
// evenly (so every node of a pack of more than ropeFanout entries holds at
// least ropeMinFill), and appends one entry per node to out. The nodes keep
// level's storage.
func pack(level []ropeEntry, leaf bool, out []ropeEntry) []ropeEntry {
	k := (len(level) + ropeFanout - 1) / ropeFanout
	for i := 0; i < k; i++ {
		lo, hi := i*len(level)/k, (i+1)*len(level)/k
		out = append(out, nodeEntry(&ropeNode{leaf: leaf, ents: level[lo:hi:hi]}))
	}
	return out
}

// push appends e to level, merging a run into the previous one when the two
// are contiguous views of one backing array (adjacent dirty regions emit
// into one buffer; a run split around an empty region rejoins).
func push(level []ropeEntry, e ropeEntry) []ropeEntry {
	if n := len(level); n > 0 && e.kid == nil {
		p := &level[n-1]
		if p.kid == nil && p.arr == e.arr && cap(p.run) >= len(p.run)+len(e.run) &&
			&p.run[:len(p.run)+1][len(p.run)] == &e.run[0] {
			p.run = p.run[:len(p.run)+len(e.run)]
			p.size += e.size
			p.last = e.last
			return level
		}
	}
	return append(level, e)
}

// Len returns the number of cells.
func (r *cellRope) Len() int { return r.top.size }

// find returns the index of n's first entry whose last cell id is >= id
// (len(n.ents) when there is none).
func (n *ropeNode) find(id cellid.CellID) int {
	lo, hi := 0, len(n.ents)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if n.ents[m].last < id {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// lowerBound returns the index of run's first cell with ID >= id.
func lowerBound(run []supercover.Cell, id cellid.CellID) int {
	return sort.Search(len(run), func(i int) bool { return run[i].ID >= id })
}

// rank counts the cells with ID < id.
//
//act:hotpath
func (r *cellRope) rank(id cellid.CellID) int {
	count := 0
	for n := r.top.kid; n != nil; {
		i := n.find(id)
		for j := 0; j < i; j++ {
			count += n.ents[j].size
		}
		if i == len(n.ents) {
			break
		}
		if n.leaf {
			return count + lowerBound(n.ents[i].run, id)
		}
		n = n.ents[i].kid
	}
	return count
}

// countRange counts the cells with lo <= ID <= hi, as a difference of ranks,
// for sizing decisions before any splice work happens.
//
//act:hotpath
func (r *cellRope) countRange(lo, hi cellid.CellID) int {
	if lo > hi {
		return 0
	}
	if hi == ^cellid.CellID(0) {
		return r.Len() - r.rank(lo)
	}
	return r.rank(hi+1) - r.rank(lo)
}

// before returns the last cell with ID < id, or nil when there is none.
//
//act:hotpath
func (r *cellRope) before(id cellid.CellID) *supercover.Cell {
	i := r.rank(id) - 1
	if i < 0 {
		return nil
	}
	for n := r.top.kid; ; {
		j := 0
		for ; i >= n.ents[j].size; j++ {
			i -= n.ents[j].size
		}
		if n.leaf {
			return &n.ents[j].run[i]
		}
		n = n.ents[j].kid
	}
}

// rangeRuns calls fn with each run segment whose cells satisfy
// lo <= ID <= hi, in rope order: the walk behind appendRange.
//
//act:hotpath
func (r *cellRope) rangeRuns(lo, hi cellid.CellID, fn func(seg []supercover.Cell)) {
	if r.top.kid != nil && lo <= hi {
		r.top.kid.rangeRuns(lo, hi, fn)
	}
}

// rangeRuns is cellRope.rangeRuns over one subtree; it reports false once
// the walk has passed hi.
func (n *ropeNode) rangeRuns(lo, hi cellid.CellID, fn func(seg []supercover.Cell)) bool {
	for i := n.find(lo); i < len(n.ents); i++ {
		e := &n.ents[i]
		if n.leaf {
			run := e.run
			if run[0].ID > hi {
				return false
			}
			a, b := 0, len(run)
			if run[0].ID < lo {
				a = lowerBound(run, lo)
			}
			if e.last > hi {
				b = sort.Search(len(run), func(k int) bool { return run[k].ID > hi })
			}
			if a < b {
				fn(run[a:b])
			}
		} else if !e.kid.rangeRuns(lo, hi, fn) {
			return false
		}
		if e.last >= hi {
			return false
		}
	}
	return true
}

// eachRun calls fn with every run, in rope order.
func (r *cellRope) eachRun(fn func(run []supercover.Cell)) {
	r.eachEntry(func(e *ropeEntry) { fn(e.run) })
}

// eachEntry calls fn with every leaf entry, in rope order.
func (r *cellRope) eachEntry(fn func(e *ropeEntry)) {
	if r.top.kid != nil {
		r.top.kid.eachEntry(fn)
	}
}

func (n *ropeNode) eachEntry(fn func(e *ropeEntry)) {
	for i := range n.ents {
		if n.leaf {
			fn(&n.ents[i])
		} else {
			n.ents[i].kid.eachEntry(fn)
		}
	}
}

// appendAll materializes the rope into dst. The returned cells' reference
// lists stay aliased to the frozen runs.
//
//act:frozen
func (r *cellRope) appendAll(dst []supercover.Cell) []supercover.Cell {
	r.eachRun(func(run []supercover.Cell) { dst = append(dst, run...) })
	return dst
}

// appendRange appends the cells with lo <= ID <= hi to dst (the frozen
// contents of one region, for transaction rollback). As with appendAll, the
// result's reference lists alias the frozen runs.
//
//act:frozen
func (r *cellRope) appendRange(dst []supercover.Cell, lo, hi cellid.CellID) []supercover.Cell {
	r.rangeRuns(lo, hi, func(seg []supercover.Cell) { dst = append(dst, seg...) })
	return dst
}

// splice returns the rope with every edit applied. Edits are sorted and
// disjoint, and index buf, which the result's new runs view. Only the nodes
// on the paths to edited cells are copied: every other subtree, run and cell
// is shared with r.
func (r *cellRope) splice(edits []ropeEdit, buf []supercover.Cell) *cellRope {
	if len(edits) == 0 {
		return r
	}
	top := r.top
	if top.kid == nil {
		top = ropeEntry{kid: &ropeNode{leaf: true}}
	}
	s := &ropeSplice{buf: buf, arr: &ropeArray{cells: cap(buf)}}
	out := ropeOf(s.node(top, edits, false, nil), false)
	if out.Len() == 0 {
		return &cellRope{}
	}
	return out
}

// node applies edits to the subtree under e and appends the entries that
// replace e to out: nodes of e's height, none when every cell went, more
// than one when the subtree overflowed, e itself when nothing changed. cont
// reports that edits[0] began left of this subtree, whose cells were placed
// there.
func (s *ropeSplice) node(e ropeEntry, edits []ropeEdit, cont bool, out []ropeEntry) []ropeEntry {
	n := e.kid
	var ents []ropeEntry
	changed := false
	if n.leaf {
		ents, changed = s.leaf(n, edits, cont)
	} else {
		// Kid i holds the ids in (last[i-1], last[i]], the last kid everything
		// above; an edit goes to every kid it overlaps, and its cells to the
		// first of them.
		ents = make([]ropeEntry, 0, len(n.ents)+2)
		j := 0 // the first edit not wholly left of kid i
		for i, kid := range n.ents {
			k := len(edits)
			if i < len(n.ents)-1 {
				for k = j; k < len(edits) && edits[k].lo <= kid.last; k++ {
				}
			}
			if j == k {
				ents = append(ents, kid)
				continue
			}
			c := cont
			if i > 0 {
				c = edits[j].lo <= n.ents[i-1].last
			}
			at := len(ents)
			ents = s.node(kid, edits[j:k], c, ents)
			changed = changed || len(ents) != at+1 || ents[at].kid != kid.kid
			if edits[k-1].hi > kid.last {
				j = k - 1 // the last edit continues into the next kid
			} else {
				j = k
			}
		}
		ents = fill(ents)
	}
	if !changed {
		return append(out, e)
	}
	return pack(ents, n.leaf, out)
}

// leaf applies edits to a leaf's runs and returns its new runs, and whether
// any cell went or came.
func (s *ropeSplice) leaf(n *ropeNode, edits []ropeEdit, cont bool) ([]ropeEntry, bool) {
	out := make([]ropeEntry, 0, len(n.ents)+2*len(edits))
	changed := false
	rest := n.ents
	var cur ropeEntry // the unconsumed part of the current run
	more := func() bool {
		if cur.size == 0 && len(rest) > 0 {
			cur, rest = rest[0], rest[1:]
		}
		return cur.size > 0
	}
	split := func(k int) (head ropeEntry) {
		head = runEntry(cur.run[:k], cur.arr)
		if k == cur.size {
			cur = ropeEntry{}
		} else {
			cur = runEntry(cur.run[k:], cur.arr)
		}
		return head
	}
	for ei, ed := range edits {
		for more() && cur.run[0].ID < ed.lo {
			out = push(out, split(lowerBound(cur.run, ed.lo)))
		}
		for more() && cur.run[0].ID <= ed.hi {
			split(sort.Search(cur.size, func(k int) bool { return cur.run[k].ID > ed.hi }))
			changed = true
		}
		if ed.to > ed.from && (ei > 0 || !cont) {
			out = push(out, runEntry(s.buf[ed.from:ed.to], s.arr))
			changed = true
		}
	}
	if cur.size > 0 {
		out = push(out, cur)
	}
	for _, e := range rest {
		out = push(out, e)
	}
	return out, changed
}

// fill merges every node in level (the kids of one node, in order) that
// holds fewer than ropeMinFill entries with a neighbour, re-packing the pair
// into one or two nodes. A lone kid stays as it is: its parent's fill
// merges it. Runs are never underfull.
func fill(level []ropeEntry) []ropeEntry {
	for j := 0; j < len(level) && len(level) > 1; j++ {
		if level[j].kid == nil {
			return level
		}
		if len(level[j].kid.ents) >= ropeMinFill {
			continue
		}
		a := min(j, len(level)-2)
		x, y := level[a].kid, level[a+1].kid
		kids := make([]ropeEntry, 0, len(x.ents)+len(y.ents))
		for _, e := range x.ents {
			kids = push(kids, e)
		}
		for _, e := range y.ents {
			kids = push(kids, e)
		}
		// An underfull node may be a lone kid over a lone kid: fill the
		// merged kids too.
		level = slices.Replace(level, a, a+2, pack(fill(kids), x.leaf, nil)...)
		j = a - 1
	}
	return level
}

// liveCells maps each backing array the rope's runs view to the number of
// the rope's cells it holds.
func (r *cellRope) liveCells() map[*ropeArray]int {
	live := make(map[*ropeArray]int)
	r.eachEntry(func(e *ropeEntry) { live[e.arr] += e.size })
	return live
}

// repack returns a rope with r's cells in which every run whose backing
// array is less than half covered by r's cells has been copied into one
// fresh, exactly sized array; every other run is shared. Afterwards the
// dead cells the rope retains never exceed the cells it holds. r itself is
// returned when no array is that sparse.
func (r *cellRope) repack() *cellRope {
	live := r.liveCells()
	sparse := func(a *ropeArray) bool { return 2*live[a] < a.cells }
	moved := 0
	for a, n := range live {
		if sparse(a) {
			moved += n
		}
	}
	if moved == 0 {
		return r
	}
	buf := make([]supercover.Cell, 0, moved)
	arr := &ropeArray{cells: moved}
	var level []ropeEntry
	r.eachEntry(func(e *ropeEntry) {
		if !sparse(e.arr) {
			level = push(level, *e)
			return
		}
		start := len(buf)
		buf = append(buf, e.run...)
		level = push(level, runEntry(buf[start:], arr))
	})
	return ropeOf(level, true)
}
