package actjoin

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"actjoin/internal/act"
	"actjoin/internal/cellindex"
	"actjoin/internal/supercover"
)

// Differential coverage of the incremental publish path: every published
// snapshot — however it was produced (patched, reuse, or rebuilt) — must be
// indistinguishable from freezing the writer state from scratch, and an
// aborted transaction must leave no trace whatsoever.

// fullFreeze builds a snapshot of the index's current writer state through
// the one-shot pipeline the pre-incremental publish used, shard by shard:
// full cell walk, full encode, full trie build. It takes each shard's
// writer mutex: the caller's own goroutine must be between mutations, but a
// background compactor may be landing its result concurrently (it is a
// writer too, and freezing the covering normalizes node reference lists in
// place).
func fullFreeze(ix *Index) *Snapshot {
	parts := make([]*part, len(ix.shards))
	for i, sh := range ix.shards {
		parts[i] = fullFreezeShard(sh)
	}
	return &Snapshot{parts: parts, router: ix.router}
}

// onePart wraps one shard's part as a one-part snapshot, so a shard can be
// queried and compared on its own.
func onePart(p *part) *Snapshot { return &Snapshot{parts: []*part{p}} }

// fullFreezeShard is fullFreeze for one shard.
func fullFreezeShard(sh *shard) *part {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	cells := sh.sc.Cells()
	kvs, table := cellindex.Encode(cells)
	return &part{
		polys:          sh.polys,
		cells:          ropeFromCells(cells),
		tree:           act.Build(kvs, sh.opt.delta),
		table:          table,
		opt:            sh.opt,
		precisionLevel: sh.precisionLevel,
	}
}

// writerCells freezes the writer-side coverings under each shard's mutex,
// concatenated in shard (and so cell-id) order: a background compactor
// landing its result counts as a writer, and freezing normalizes node
// reference lists in place.
func writerCells(ix *Index) []supercover.Cell {
	var out []supercover.Cell
	for _, sh := range ix.shards {
		sh.mu.Lock()
		out = append(out, sh.sc.Cells()...)
		sh.mu.Unlock()
	}
	return out
}

// validateWriterDirectory runs ValidateDirectory on every shard under its
// writer mutex.
func validateWriterDirectory(t *testing.T, ix *Index, ctx string) {
	t.Helper()
	for si, sh := range ix.shards {
		sh.mu.Lock()
		err := sh.sc.ValidateDirectory()
		sh.mu.Unlock()
		if err != nil {
			t.Fatalf("%s: shard %d: %v", ctx, si, err)
		}
	}
}

// diffBound is the test arena (roughly Manhattan-sized).
var diffBound = struct{ lox, loy, w, h float64 }{-74.05, 40.68, 0.15, 0.12}

func randSquare(rng *rand.Rand) Polygon {
	x := diffBound.lox + rng.Float64()*diffBound.w
	y := diffBound.loy + rng.Float64()*diffBound.h
	sx := (0.02 + rng.Float64()*0.1) * diffBound.w
	sy := (0.02 + rng.Float64()*0.1) * diffBound.h
	return Polygon{Exterior: Ring{
		{Lon: x, Lat: y}, {Lon: x + sx, Lat: y},
		{Lon: x + sx, Lat: y + sy}, {Lon: x, Lat: y + sy},
	}}
}

func randPoints(rng *rand.Rand, n int) []Point {
	out := make([]Point, n)
	for i := range out {
		out[i] = Point{
			Lon: diffBound.lox + rng.Float64()*diffBound.w*1.1 - 0.05*diffBound.w,
			Lat: diffBound.loy + rng.Float64()*diffBound.h*1.1 - 0.05*diffBound.h,
		}
	}
	return out
}

// assertSnapshotsEqual compares two snapshots on everything a caller can
// observe: the frozen cells, the serialized bytes, and query results.
func assertSnapshotsEqual(t *testing.T, ctx string, got, want *Snapshot, probes []Point) {
	t.Helper()
	gc, wc := got.frozenCells(), want.frozenCells()
	if len(gc) != len(wc) {
		t.Fatalf("%s: %d cells, want %d", ctx, len(gc), len(wc))
	}
	for i := range gc {
		if gc[i].ID != wc[i].ID {
			t.Fatalf("%s: cell %d id %v, want %v", ctx, i, gc[i].ID, wc[i].ID)
		}
		if !reflect.DeepEqual(gc[i].Refs, wc[i].Refs) {
			t.Fatalf("%s: cell %d (%v) refs %v, want %v",
				ctx, i, gc[i].ID, gc[i].Refs, wc[i].Refs)
		}
	}

	var gb, wb bytes.Buffer
	if _, err := got.WriteTo(&gb); err != nil {
		t.Fatalf("%s: WriteTo: %v", ctx, err)
	}
	if _, err := want.WriteTo(&wb); err != nil {
		t.Fatalf("%s: WriteTo: %v", ctx, err)
	}
	if !bytes.Equal(gb.Bytes(), wb.Bytes()) {
		t.Fatalf("%s: serialized snapshots differ (%d vs %d bytes)", ctx, gb.Len(), wb.Len())
	}

	for i, p := range probes {
		if g, w := got.Covers(p), want.Covers(p); !reflect.DeepEqual(g, w) {
			t.Fatalf("%s: Covers(probe %d) = %v, want %v", ctx, i, g, w)
		}
		if g, w := got.CoversApprox(p), want.CoversApprox(p); !reflect.DeepEqual(g, w) {
			t.Fatalf("%s: CoversApprox(probe %d) = %v, want %v", ctx, i, g, w)
		}
	}
	for _, exact := range []bool{false, true} {
		opt := QueryOptions{Exact: exact, Sorted: true, Threads: 1}
		g := got.CoversBatch(probes, opt)
		w := want.CoversBatch(probes, opt)
		if !reflect.DeepEqual(g, w) {
			t.Fatalf("%s: CoversBatch(exact=%v) differs", ctx, exact)
		}
		gj := got.JoinCount(probes, opt)
		wj := want.JoinCount(probes, opt)
		if !reflect.DeepEqual(gj.Counts, wj.Counts) {
			t.Fatalf("%s: JoinCount(exact=%v) counts differ:\n%v\n%v", ctx, exact, gj.Counts, wj.Counts)
		}
	}
}

// TestIncrementalPublishDifferential drives long interleaved sequences of
// Add/Remove/Train/Apply (including aborted transactions) and asserts every
// published snapshot is byte- and result-identical to a from-scratch freeze
// of the same writer state.
func TestIncrementalPublishDifferential(t *testing.T) {
	configs := []struct {
		name string
		opts []Option
	}{
		{"exact-delta4", []Option{WithCoveringBudget(8, 16)}},
		{"precision-delta4", []Option{WithCoveringBudget(8, 16), WithPrecision(2000)}},
		{"exact-delta1", []Option{WithCoveringBudget(8, 16), WithGranularity(1)}},
	}
	for ci, cfg := range configs {
		cfg := cfg
		t.Run(cfg.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(1000 + ci)))
			polys := make([]Polygon, 30)
			for i := range polys {
				polys[i] = randSquare(rng)
			}
			ix, err := NewIndex(polys, cfg.opts...)
			if err != nil {
				t.Fatal(err)
			}
			probes := randPoints(rng, 250)

			live := make([]PolygonID, 0, len(polys))
			for i := range polys {
				live = append(live, PolygonID(i))
			}
			removeRandom := func(do func(PolygonID) error) error {
				if len(live) == 0 {
					return nil
				}
				k := rng.Intn(len(live))
				id := live[k]
				live = append(live[:k], live[k+1:]...)
				return do(id)
			}

			for step := 0; step < 60; step++ {
				switch op := rng.Intn(10); {
				case op < 4: // Add
					id, err := ix.Add(randSquare(rng))
					if err != nil {
						t.Fatal(err)
					}
					live = append(live, id)
				case op < 6: // Remove
					if err := removeRandom(ix.Remove); err != nil {
						t.Fatal(err)
					}
				case op < 7: // Train
					ix.Train(randPoints(rng, 50), 0)
				case op < 9: // committed Apply batch
					err := ix.Apply(func(tx *Tx) error {
						for k := 0; k < 1+rng.Intn(3); k++ {
							id, err := tx.Add(randSquare(rng))
							if err != nil {
								return err
							}
							live = append(live, id)
						}
						if rng.Intn(2) == 0 {
							if err := removeRandom(tx.Remove); err != nil {
								return err
							}
						}
						if rng.Intn(3) == 0 {
							tx.Train(randPoints(rng, 30), 0)
						}
						return nil
					})
					if err != nil {
						t.Fatal(err)
					}
				default: // aborted Apply (error or panic)
					liveBefore := append([]PolygonID(nil), live...)
					abort := func(tx *Tx) error {
						if _, err := tx.Add(randSquare(rng)); err != nil {
							return err
						}
						if err := removeRandom(tx.Remove); err != nil {
							return err
						}
						tx.Train(randPoints(rng, 20), 0)
						if rng.Intn(2) == 0 {
							panic("abort")
						}
						return errors.New("abort")
					}
					func() {
						defer func() { recover() }()
						if err := ix.Apply(abort); err == nil {
							t.Fatal("aborting transaction committed")
						}
					}()
					live = liveBefore
				}
				assertSnapshotsEqual(t, fmt.Sprintf("%s step %d", cfg.name, step),
					ix.Current(), fullFreeze(ix), probes)
			}
			if patched, full := ix.shards[0].publishCounters(); patched == 0 {
				t.Fatalf("incremental path never engaged (%d full publishes)", full)
			}
		})
	}
}

// TestAbortedApplyLeavesNoTrace: a failed (or panicking) Apply followed by
// further mutations and queries must be indistinguishable from an index
// that never ran the aborted batch — including the writer-side state the
// next publishes freeze from.
func TestAbortedApplyLeavesNoTrace(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	polys := make([]Polygon, 20)
	for i := range polys {
		polys[i] = randSquare(rng)
	}
	build := func() *Index {
		ix, err := NewIndex(polys, WithCoveringBudget(8, 16), WithPrecision(2000))
		if err != nil {
			t.Fatal(err)
		}
		return ix
	}
	a, b := build(), build()
	probes := randPoints(rng, 200)

	// A suffers two aborted transactions (one error, one panic), B none.
	if err := a.Apply(func(tx *Tx) error {
		if _, err := tx.Add(randSquare(rng)); err != nil {
			return err
		}
		if err := tx.Remove(3); err != nil {
			return err
		}
		tx.Train(randPoints(rng, 40), 0)
		return errors.New("abort")
	}); err == nil {
		t.Fatal("aborting transaction committed")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("panic did not propagate")
			}
		}()
		_ = a.Apply(func(tx *Tx) error {
			if _, err := tx.Add(randSquare(rng)); err != nil {
				return err
			}
			panic("abort")
		})
	}()

	// The same mutations on both; ids handed out must match, publishes must
	// converge to identical snapshots and identical writer state.
	mutations := []func(ix *Index) error{
		func(ix *Index) error {
			id, err := ix.Add(randSquare(rand.New(rand.NewSource(5))))
			if err == nil && id != PolygonID(len(polys)) {
				return fmt.Errorf("id %d, want %d — aborted ids leaked", id, len(polys))
			}
			return err
		},
		func(ix *Index) error { return ix.Remove(7) },
		func(ix *Index) error {
			ix.Train(randPoints(rand.New(rand.NewSource(6)), 60), 0)
			return nil
		},
		func(ix *Index) error {
			return ix.Apply(func(tx *Tx) error {
				_, err := tx.Add(randSquare(rand.New(rand.NewSource(8))))
				return err
			})
		},
	}
	for mi, m := range mutations {
		if err := m(a); err != nil {
			t.Fatalf("mutation %d on aborted index: %v", mi, err)
		}
		if err := m(b); err != nil {
			t.Fatalf("mutation %d on clean index: %v", mi, err)
		}
		assertSnapshotsEqual(t, fmt.Sprintf("after mutation %d", mi),
			a.Current(), b.Current(), probes)
	}
	// Writer-side equivalence: both freeze to the same cells.
	if !reflect.DeepEqual(writerCells(a), writerCells(b)) {
		t.Fatal("writer-side coverings diverged after the aborted transactions")
	}
}

// TestPublishCompactionTriggers: with background compaction disabled,
// sustained churn must eventually cross a garbage threshold and fall back
// to a compacting full rebuild, and the snapshots stay correct across the
// transition. (The default background path is covered by the tests in
// compaction_test.go.)
func TestPublishCompactionTriggers(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	polys := make([]Polygon, 40)
	for i := range polys {
		polys[i] = randSquare(rng)
	}
	ix, err := NewIndex(polys, WithCoveringBudget(8, 16), withBackgroundCompaction(false))
	if err != nil {
		t.Fatal(err)
	}
	probes := randPoints(rng, 100)
	for i := 0; i < 150; i++ {
		id, err := ix.Add(randSquare(rng))
		if err != nil {
			t.Fatal(err)
		}
		if err := ix.Remove(id); err != nil {
			t.Fatal(err)
		}
		if i%25 == 0 {
			assertSnapshotsEqual(t, fmt.Sprintf("churn %d", i), ix.Current(), fullFreeze(ix), probes)
		}
	}
	patched, full := ix.shards[0].publishCounters()
	if patched == 0 {
		t.Fatal("incremental path never engaged")
	}
	if full < 2 { // the initial build plus at least one compaction
		t.Fatalf("garbage thresholds never triggered a compacting rebuild (patched %d, full %d)",
			patched, full)
	}
	if st := ix.PublishStats(); st.CompactionsStarted != 0 {
		t.Fatalf("%d background compactions despite withBackgroundCompaction(false)", st.CompactionsStarted)
	}
	assertSnapshotsEqual(t, "final", ix.Current(), fullFreeze(ix), probes)
}

// TestIncrementalPublishDisabled: the escape hatch forces the full path and
// stays equivalent.
func TestIncrementalPublishDisabled(t *testing.T) {
	rng := rand.New(rand.NewSource(66))
	polys := make([]Polygon, 10)
	for i := range polys {
		polys[i] = randSquare(rng)
	}
	ix, err := NewIndex(polys, WithCoveringBudget(8, 16), withIncrementalPublish(false))
	if err != nil {
		t.Fatal(err)
	}
	probes := randPoints(rng, 100)
	for i := 0; i < 5; i++ {
		if _, err := ix.Add(randSquare(rng)); err != nil {
			t.Fatal(err)
		}
	}
	if patched, _ := ix.shards[0].publishCounters(); patched != 0 {
		t.Fatalf("%d patched publishes despite withIncrementalPublish(false)", patched)
	}
	assertSnapshotsEqual(t, "full-only", ix.Current(), fullFreeze(ix), probes)
}

// TestStatsExcludeOrphans: snapshot statistics must report live trie nodes,
// with patch-orphaned arena nodes in their own counter that together account
// for the whole arena. (Live counts of a patched tree and a fresh build may
// differ slightly — the patch preserves the frozen prefix layout — so the
// cross-check against reachable nodes lives in internal/act's
// TestPatchNodeAccounting; here we check the public wiring.)
func TestStatsExcludeOrphans(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	polys := make([]Polygon, 20)
	for i := range polys {
		polys[i] = randSquare(rng)
	}
	ix, err := NewIndex(polys, WithCoveringBudget(8, 16))
	if err != nil {
		t.Fatal(err)
	}
	sawOrphans := false
	for i := 0; i < 12; i++ {
		id, err := ix.Add(randSquare(rng))
		if err != nil {
			t.Fatal(err)
		}
		if err := ix.Remove(id); err != nil {
			t.Fatal(err)
		}
		st := ix.Current().Stats()
		if st.OrphanTrieNodes > 0 {
			sawOrphans = true
		}
		// Live + orphaned nodes must account for the entire arena.
		nodeBytes := 8 << uint(2*st.Granularity)
		if (st.NumTrieNodes+st.OrphanTrieNodes)*nodeBytes != st.TrieSizeBytes {
			t.Fatalf("churn %d: %d live + %d orphaned nodes don't cover the %d-byte arena",
				i, st.NumTrieNodes, st.OrphanTrieNodes, st.TrieSizeBytes)
		}
		if refStats := fullFreeze(ix).Stats(); refStats.OrphanTrieNodes != 0 {
			t.Fatalf("churn %d: full freeze reports %d orphans", i, refStats.OrphanTrieNodes)
		}
	}
	if !sawOrphans {
		t.Fatal("Add/Remove churn never orphaned a trie node")
	}
	if patched, _ := ix.shards[0].publishCounters(); patched == 0 {
		t.Fatal("incremental path never engaged")
	}
}

// TestFullRebuildResetsSnapshotMaxCellLevel: removing the polygon with the
// deepest covering keeps the stale probe-sort depth on the incremental path
// (the documented drift) and resets it on the full-rebuild path.
func TestFullRebuildResetsSnapshotMaxCellLevel(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	polys := make([]Polygon, 10)
	for i := range polys {
		polys[i] = randSquare(rng)
	}
	// One polygon orders of magnitude smaller than the rest: its covering
	// cells are the deepest in the index.
	tiny := Polygon{Exterior: Ring{
		{Lon: -74.0, Lat: 40.7}, {Lon: -73.999995, Lat: 40.7},
		{Lon: -73.999995, Lat: 40.700005}, {Lon: -74.0, Lat: 40.700005},
	}}
	tinyID := PolygonID(len(polys))
	polys = append(polys, tiny)

	build := func(opts ...Option) *Index {
		ix, err := NewIndex(polys, append([]Option{WithCoveringBudget(8, 16)}, opts...)...)
		if err != nil {
			t.Fatal(err)
		}
		return ix
	}
	inc := build()
	full := build(withIncrementalPublish(false))
	deepLevel := inc.Current().parts[0].tree.MaxCellLevel()

	if err := inc.Remove(tinyID); err != nil {
		t.Fatal(err)
	}
	if err := full.Remove(tinyID); err != nil {
		t.Fatal(err)
	}
	if got := inc.Current().parts[0].tree.MaxCellLevel(); got != deepLevel {
		t.Fatalf("incremental MaxCellLevel = %d after removal; the documented drift keeps %d", got, deepLevel)
	}
	fresh, err := NewIndex(polys[:tinyID], WithCoveringBudget(8, 16))
	if err != nil {
		t.Fatal(err)
	}
	want := fresh.Current().parts[0].tree.MaxCellLevel()
	if want >= deepLevel {
		t.Fatalf("fixture broken: remaining polygons reach level %d >= tiny polygon's %d", want, deepLevel)
	}
	if got := full.Current().parts[0].tree.MaxCellLevel(); got != want {
		t.Fatalf("full rebuild MaxCellLevel = %d after removal, want reset to %d", got, want)
	}
}
