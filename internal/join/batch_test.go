package join

import (
	"math"
	"math/bits"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"actjoin/internal/act"
	"actjoin/internal/cellid"
	"actjoin/internal/cellindex"
	"actjoin/internal/geom"
	"actjoin/internal/refs"
)

// referenceCollect materializes per-point results through the single-point
// probe path, the oracle for the batch pipeline.
func referenceCollect(f *fixture, mode Mode) [][]uint32 {
	exact := mode == Exact
	out := make([][]uint32, len(f.pts))
	for i := range f.pts {
		entry := f.actT.Find(f.cells[i])
		if entry.IsFalseHit() {
			continue
		}
		f.table.Visit(entry, func(r refs.Ref) {
			if !r.Interior() && exact && !f.polys[r.PolygonID()].ContainsPoint(f.pts[i]) {
				return
			}
			out[i] = append(out[i], r.PolygonID())
		})
	}
	return out
}

func batchVariants() []BatchOptions {
	var out []BatchOptions
	for _, mode := range []Mode{Approximate, Exact} {
		for _, sorted := range []bool{false, true} {
			for _, threads := range []int{1, 4} {
				out = append(out, BatchOptions{Mode: mode, Sorted: sorted, Threads: threads})
			}
		}
	}
	return out
}

func TestBatchCollectMatchesSinglePointPath(t *testing.T) {
	f := newFixture(t, true, 20000)
	for _, opt := range batchVariants() {
		want := referenceCollect(f, opt.Mode)
		got, res := RunBatchCollect(f.actT, f.table, f.pts, f.cells, f.polys, opt)
		if !reflect.DeepEqual(got, want) {
			for i := range want {
				if !reflect.DeepEqual(got[i], want[i]) {
					t.Fatalf("%+v: point %d: got %v, want %v", opt, i, got[i], want[i])
				}
			}
		}
		if res.Points != len(f.pts) {
			t.Errorf("%+v: Points = %d", opt, res.Points)
		}
	}
}

func TestBatchCountMatchesRun(t *testing.T) {
	f := newFixture(t, true, 20000)
	for _, opt := range batchVariants() {
		want := Run(f.actT, f.table, f.pts, f.cells, f.polys, Options{Mode: opt.Mode})
		got := RunBatchCount(f.actT, f.table, f.pts, f.cells, f.polys, opt)
		if !reflect.DeepEqual(got.Counts, want.Counts) {
			t.Errorf("%+v: counts diverge from Run", opt)
		}
		if got.Matched != want.Matched || got.SolelyTrueHits != want.SolelyTrueHits {
			t.Errorf("%+v: matched/sth %d/%d, want %d/%d",
				opt, got.Matched, got.SolelyTrueHits, want.Matched, want.SolelyTrueHits)
		}
		if opt.Mode == Exact && got.PIPTests == 0 {
			t.Errorf("%+v: exact batch performed no PIP tests", opt)
		}
	}
}

func TestBatchExactMatchesBruteForce(t *testing.T) {
	f := newFixture(t, false, 20000)
	res := RunBatchCount(f.actT, f.table, f.pts, f.cells, f.polys,
		BatchOptions{Mode: Exact, Sorted: true, Threads: 4})
	for pid := range f.polys {
		if res.Counts[pid] != f.oracle[pid] {
			t.Errorf("polygon %d count %d, oracle %d", pid, res.Counts[pid], f.oracle[pid])
		}
	}
}

func TestBatchSortedCacheHits(t *testing.T) {
	f := newFixture(t, true, 20000)
	sorted := RunBatchCount(f.actT, f.table, f.pts, f.cells, f.polys,
		BatchOptions{Mode: Approximate, Sorted: true, Threads: 1})
	if sorted.CacheHits == 0 {
		t.Error("sorted clustered probe stream produced no cache hits")
	}
	// A sorted stream must produce at least as many run hits as the raw
	// stream (taxi points are clustered but interleaved).
	unsorted := RunBatchCount(f.actT, f.table, f.pts, f.cells, f.polys,
		BatchOptions{Mode: Approximate, Sorted: false, Threads: 1})
	if sorted.CacheHits < unsorted.CacheHits {
		t.Errorf("sorted cache hits %d < unsorted %d", sorted.CacheHits, unsorted.CacheHits)
	}
}

// TestBatchSameResultAtEveryThreadCount checks that every Result field and
// the collect output are identical at every thread count, on each schedule
// form the probe loop reads: packed, wide-key permutation, input order for
// one repeated cell, and input order for an unsorted stream.
func TestBatchSameResultAtEveryThreadCount(t *testing.T) {
	f := newFixture(t, false, 6*chunkSize+123)
	rng := rand.New(rand.NewSource(9))
	world := slices.Clone(f.pts)
	for i := 0; i < len(world); i += 3 {
		world[i] = geom.Point{X: 360*rng.Float64() - 180, Y: 180*rng.Float64() - 90}
	}
	// One repeated point whose cell holds a candidate ref, so exact mode
	// refines every point of the stream.
	var same []geom.Point
	for i, c := range f.cells {
		hasCandidate := false
		f.table.Visit(f.actT.Find(c), func(r refs.Ref) { hasCandidate = hasCandidate || !r.Interior() })
		if hasCandidate {
			same = make([]geom.Point, len(f.pts))
			for k := range same {
				same[k] = f.pts[i]
			}
			break
		}
	}
	if same == nil {
		t.Fatal("fixture has no candidate cell")
	}
	toCells := func(pts []geom.Point) []cellid.CellID {
		cells := make([]cellid.CellID, len(pts))
		cellid.FromPoints(cells, pts)
		return cells
	}
	drop := uint(2*(cellid.MaxLevel-f.actT.MaxCellLevel()) + 1)
	for _, tc := range []struct {
		name   string
		pts    []geom.Point
		sorted bool
		form   string
	}{
		{"packed", f.pts, true, "packed"},
		{"wide keys", world, true, "perm"},
		{"one cell", same, true, "input"},
		{"unsorted", f.pts, false, "input"},
	} {
		cells := toCells(tc.pts)
		if tc.sorted {
			ord := makeProbeOrder(cells, drop, 1)
			form := "input"
			switch {
			case ord.packed != nil:
				form = "packed"
			case ord.perm != nil:
				form = "perm"
			}
			if form != tc.form {
				t.Fatalf("%s: stream schedules as %s, want %s", tc.name, form, tc.form)
			}
		}
		for _, mode := range []Mode{Approximate, Exact} {
			opt := BatchOptions{Mode: mode, Sorted: tc.sorted, Threads: 1}
			wantOut, want := RunBatchCollect(f.actT, f.table, tc.pts, cells, f.polys, opt)
			want.Duration = 0
			if want.CacheHits == 0 {
				t.Errorf("%s %+v: no run shared a walk", tc.name, opt)
			}
			for _, threads := range []int{2, 3, 4, 7} {
				opt.Threads = threads
				gotOut, got := RunBatchCollect(f.actT, f.table, tc.pts, cells, f.polys, opt)
				got.Duration = 0
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s %+v: result %+v, at 1 thread %+v", tc.name, opt, got, want)
				}
				if !reflect.DeepEqual(gotOut, wantOut) {
					t.Errorf("%s %+v: collect output differs from 1 thread", tc.name, opt)
				}
				count := RunBatchCount(f.actT, f.table, tc.pts, cells, f.polys, opt)
				count.Duration = 0
				if !reflect.DeepEqual(count, want) {
					t.Errorf("%s %+v: count result %+v, collect %+v", tc.name, opt, count, want)
				}
			}
		}
	}
}

// TestBatchRunSpansExtendedCell: a sorted stream inside one index cell that
// key extension stores as a quad of replica slots costs one walk per chunk,
// not one per replica.
func TestBatchRunSpansExtendedCell(t *testing.T) {
	leaf := cellid.FromPoint(geom.Point{X: -73.98, Y: 40.71})
	const anchor = 16 // a band boundary for delta 4
	cell := leaf.Parent(anchor - 1)
	other := leaf.Parent(anchor - 2).Child((leaf.ChildPosition(anchor-1) + 1) % 4).Child(0)
	table := refs.NewTable()
	entry := table.Encode([]refs.Ref{refs.MakeRef(0, false)})
	kvs := []cellindex.KeyEntry{{Key: cell, Entry: entry}, {Key: other, Entry: entry}}
	if kvs[0].Key > kvs[1].Key {
		kvs[0], kvs[1] = kvs[1], kvs[0]
	}
	idx := act.Build(kvs, act.Delta4)
	if idx.NumValueSlots() != 4+1 {
		t.Fatalf("NumValueSlots = %d, want 5: the level-%d cell must be 4 replicas", idx.NumValueSlots(), anchor-1)
	}

	// The polygon covers the western half of the cell, so exact mode
	// refines every point and some points miss.
	b := cell.Bound()
	midX := (b.Lo.X + b.Hi.X) / 2
	polys := []*geom.Polygon{geom.MustPolygon(geom.Ring{
		{X: b.Lo.X - 1, Y: b.Lo.Y - 1}, {X: midX, Y: b.Lo.Y - 1}, {X: midX, Y: b.Hi.Y + 1}, {X: b.Lo.X - 1, Y: b.Hi.Y + 1},
	})}
	n := 3*chunkSize + 17
	rng := rand.New(rand.NewSource(5))
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Point{
			X: b.Lo.X + (0.01+0.98*rng.Float64())*b.Width(),
			Y: b.Lo.Y + (0.01+0.98*rng.Float64())*b.Height(),
		}
	}
	cells := make([]cellid.CellID, n)
	cellid.FromPoints(cells, pts)
	for _, c := range cells {
		if !cell.Contains(c) {
			t.Fatalf("point cell %v outside the index cell %v", c, cell)
		}
	}

	wantHits := int64(n - (n+chunkSize-1)/chunkSize)
	for _, mode := range []Mode{Approximate, Exact} {
		want := Run(idx, table, pts, cells, polys, Options{Mode: mode})
		for _, threads := range []int{1, 2, 4} {
			opt := BatchOptions{Mode: mode, Sorted: true, Threads: threads}
			got := RunBatchCount(idx, table, pts, cells, polys, opt)
			if got.CacheHits != wantHits {
				t.Errorf("%+v: CacheHits = %d, want %d (one walk per chunk)", opt, got.CacheHits, wantHits)
			}
			if !reflect.DeepEqual(got.Counts, want.Counts) {
				t.Errorf("%+v: counts %v, per-point Run %v", opt, got.Counts, want.Counts)
			}
		}
	}
}

func TestBatchNonRangeIndexFallback(t *testing.T) {
	// GBT and LB don't implement RangeIndex; the batch path must fall back
	// to plain Find and still agree.
	f := newFixture(t, true, 10000)
	for name, idx := range map[string]cellindex.Index{"gbt": f.gbt, "lb": f.lb} {
		if _, ok := idx.(cellindex.RangeIndex); ok {
			t.Fatalf("%s unexpectedly implements RangeIndex; test needs a new non-range structure", name)
		}
		want := Run(idx, f.table, f.pts, f.cells, f.polys, Options{Mode: Exact})
		got := RunBatchCount(idx, f.table, f.pts, f.cells, f.polys,
			BatchOptions{Mode: Exact, Sorted: true, Threads: 2})
		if !reflect.DeepEqual(got.Counts, want.Counts) {
			t.Errorf("%s: batch counts diverge from Run", name)
		}
		if got.CacheHits != 0 {
			t.Errorf("%s: cache hits %d without RangeIndex", name, got.CacheHits)
		}
	}
}

func TestBatchEmptyAndTiny(t *testing.T) {
	f := newFixture(t, false, 100)
	out, res := RunBatchCollect(f.actT, f.table, nil, nil, f.polys,
		BatchOptions{Mode: Exact, Sorted: true})
	if len(out) != 0 || res.Points != 0 || sum(res.Counts) != 0 {
		t.Errorf("empty batch: out=%d res=%+v", len(out), res)
	}
	// Tiny inputs are forced single-threaded; results must still line up.
	got, _ := RunBatchCollect(f.actT, f.table, f.pts[:5], f.cells[:5], f.polys,
		BatchOptions{Mode: Approximate, Sorted: true, Threads: 8})
	want := referenceCollect(f, Approximate)
	if !reflect.DeepEqual(got, want[:5]) {
		t.Errorf("tiny batch diverges: got %v want %v", got, want[:5])
	}
}

// orderIndices flattens a probeOrder into the index sequence it schedules.
func orderIndices(ord probeOrder, n int) []int {
	out := make([]int, n)
	for k := range out {
		switch {
		case ord.packed != nil:
			out[k] = int(ord.packed[k] >> 32)
		case ord.perm != nil:
			out[k] = int(ord.perm[k])
		default:
			out[k] = k
		}
	}
	return out
}

func TestMakeProbeOrder(t *testing.T) {
	f := newFixture(t, false, 5000)
	for _, drop := range []uint{0, 17, 25, 63, 80} {
		eff := drop
		if eff > 63 {
			eff = 63
		}
		ord := makeProbeOrder(f.cells, drop, 1)
		idxs := orderIndices(ord, len(f.cells))
		seen := make([]bool, len(idxs))
		for k := 1; k < len(idxs); k++ {
			// The packed schedule guarantees order only above bucketShift,
			// measured on min-offset keys (partial sort); the perm fallback
			// is fully ordered.
			prev := (uint64(f.cells[idxs[k-1]])>>eff - ord.minKey) >> ord.bucketShift
			cur := (uint64(f.cells[idxs[k]])>>eff - ord.minKey) >> ord.bucketShift
			if prev > cur {
				t.Fatalf("drop %d: truncated order not ascending at %d", drop, k)
			}
		}
		for _, i := range idxs {
			if seen[i] {
				t.Fatalf("drop %d: index %d appears twice", drop, i)
			}
			seen[i] = true
		}
		if ord.packed != nil {
			// The reconstructed probe leaf must agree with the real leaf on
			// every bit above drop (the bits any index up to that level
			// reads), and be a valid leaf cell.
			for k, p := range ord.packed {
				rep := cellid.CellID((uint64(uint32(p))+ord.minKey)<<ord.drop | 1)
				real := f.cells[idxs[k]]
				if rep>>eff != real>>eff {
					t.Fatalf("drop %d: pos %d: rep %v disagrees with leaf %v above bit %d",
						drop, k, rep, real, eff)
				}
				if !rep.IsValid() || !rep.IsLeaf() {
					t.Fatalf("drop %d: rep %#x is not a valid leaf", drop, uint64(rep))
				}
			}
		}
	}
	if ord := makeProbeOrder(nil, 0, 1); ord.packed != nil || ord.perm != nil {
		t.Error("empty input must schedule input order")
	}
	one := makeProbeOrder([]cellid.CellID{cellid.FromPoint(f.pts[0])}, 0, 1)
	if got := orderIndices(one, 1); len(got) != 1 || got[0] != 0 {
		t.Errorf("singleton order = %v", got)
	}
}

// sortPackedRef is the serial single-pass counting sort, the oracle for the
// parallel partition: it stages key|idx<<32 words and scatters them stably
// by the top maxSortDigitBits of the key range.
func sortPackedRef(cells []cellid.CellID, drop uint, minKey uint64, keyBits uint) ([]uint64, uint) {
	a := make([]uint64, len(cells))
	for i, c := range cells {
		a[i] = (uint64(c)>>drop - minKey) | uint64(i)<<32
	}
	shift := uint(0)
	if keyBits > maxSortDigitBits {
		shift = keyBits - maxSortDigitBits
	}
	mask := uint64(1<<(keyBits-shift) - 1)
	counts := make([]int32, mask+1)
	for _, p := range a {
		counts[(p>>shift)&mask]++
	}
	sum := int32(0)
	for i := range counts {
		c := counts[i]
		counts[i] = sum
		sum += c
	}
	b := make([]uint64, len(a))
	for _, p := range a {
		d := (p >> shift) & mask
		b[counts[d]] = p
		counts[d]++
	}
	return b, shift
}

// TestProbeOrderSameAtEveryThreadCount checks that the partitioned sort
// schedules the stream word for word like the serial counting sort, for
// every chunk count, on the inputs that stress the chunking.
func TestProbeOrderSameAtEveryThreadCount(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	nyc := func(n int) []cellid.CellID {
		pts := make([]geom.Point, n)
		for i := range pts {
			pts[i] = geom.Point{X: -74.1 + 0.3*rng.Float64(), Y: 40.6 + 0.3*rng.Float64()}
		}
		cells := make([]cellid.CellID, n)
		cellid.FromPoints(cells, pts)
		return cells
	}
	world := make([]cellid.CellID, 3*minChunkPoints+1)
	for i := range world {
		world[i] = cellid.FromPoint(geom.Point{X: 360*rng.Float64() - 180, Y: 180*rng.Float64() - 90})
	}
	same := make([]cellid.CellID, 5*minChunkPoints)
	for i := range same {
		same[i] = world[0]
	}
	const (
		packed = iota
		perm
		input
	)
	for _, tc := range []struct {
		name  string
		cells []cellid.CellID
		drop  uint
		kind  int
	}{
		{"n not divisible by chunks", nyc(7*minChunkPoints + 5), 21, packed},
		{"below one-chunk threshold", nyc(minChunkPoints - 1), 21, packed},
		{"keys narrower than one digit", nyc(4*minChunkPoints + 3), 41, packed},
		{"all keys equal", same, 0, input},
		{"keys wider than 32 bits", world, 0, perm},
	} {
		minKey, maxKey := uint64(math.MaxUint64), uint64(0)
		for _, c := range tc.cells {
			minKey = min(minKey, uint64(c)>>tc.drop)
			maxKey = max(maxKey, uint64(c)>>tc.drop)
		}
		keyBits := uint(bits.Len64(maxKey - minKey))
		var want probeOrder
		switch tc.kind {
		case packed:
			if keyBits == 0 || keyBits > 32 {
				t.Fatalf("%s: %d key bits do not take the packed path", tc.name, keyBits)
			}
			want.packed, want.bucketShift = sortPackedRef(tc.cells, tc.drop, minKey, keyBits)
			want.minKey, want.drop = minKey, tc.drop
		case perm:
			want.perm = sortWide(tc.cells, tc.drop, minKey, keyBits)
		}
		for _, threads := range []int{1, 2, 3, 4, 7} {
			got := makeProbeOrder(tc.cells, tc.drop, threads)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s: threads %d: schedule differs from the serial counting sort", tc.name, threads)
			}
		}
	}
}
