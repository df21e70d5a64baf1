package actjoin

import (
	"bytes"
	"math/rand"
	"testing"
)

func TestSerializeRoundTrip(t *testing.T) {
	orig, err := NewIndex(testPolygons(), WithPrecision(30), WithGranularity(2))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	n, err := orig.Current().WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Errorf("WriteTo returned %d, wrote %d", n, buf.Len())
	}

	loaded, err := ReadIndexFrom(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Precision() != 30 || loaded.Current().Stats().Granularity != 2 {
		t.Errorf("options lost: %v %d", loaded.Precision(), loaded.Current().Stats().Granularity)
	}
	if loaded.Current().Stats().NumCells != orig.Current().Stats().NumCells {
		t.Errorf("cells: %d vs %d", loaded.Current().Stats().NumCells, orig.Current().Stats().NumCells)
	}

	// Behavioural equality on random probes.
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 3000; i++ {
		p := Point{Lon: -74.01 + rng.Float64()*0.09, Lat: 40.69 + rng.Float64()*0.11}
		a := orig.Current().Covers(p)
		b := loaded.Current().Covers(p)
		if len(a) != len(b) {
			t.Fatalf("Covers mismatch at %v: %v vs %v", p, a, b)
		}
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("Covers mismatch at %v: %v vs %v", p, a, b)
			}
		}
		aa := orig.Current().CoversApprox(p)
		bb := loaded.Current().CoversApprox(p)
		if len(aa) != len(bb) {
			t.Fatalf("CoversApprox mismatch at %v", p)
		}
	}
}

func TestSerializePreservesTraining(t *testing.T) {
	orig, err := NewIndex(testPolygons())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	var train []Point
	for i := 0; i < 3000; i++ {
		train = append(train, Point{Lon: -73.97 + (rng.Float64()-0.5)*0.002, Lat: 40.70 + rng.Float64()*0.03})
	}
	st := orig.Train(train, 0)
	if st.CellsSplit == 0 {
		t.Fatal("training did nothing")
	}

	var buf bytes.Buffer
	if _, err := orig.Current().WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadIndexFrom(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Current().Stats().NumCells != orig.Current().Stats().NumCells {
		t.Errorf("training lost: %d vs %d cells", loaded.Current().Stats().NumCells, orig.Current().Stats().NumCells)
	}
}

// TestSerializeTombstoneRoundTrip covers the on-disk tombstone encoding:
// an index that removed polygons (and added one after, so tombstones sit
// between live entries) must round-trip with ids, tombstones and query
// behaviour intact.
func TestSerializeTombstoneRoundTrip(t *testing.T) {
	idx, err := NewIndex(testPolygons(), WithPrecision(30))
	if err != nil {
		t.Fatal(err)
	}
	if err := idx.Remove(0); err != nil {
		t.Fatal(err)
	}
	if err := idx.Remove(2); err != nil {
		t.Fatal(err)
	}
	addedID, err := idx.Add(square(-73.90, 40.60, 0.02))
	if err != nil {
		t.Fatal(err)
	}

	snap := idx.Current()
	var buf bytes.Buffer
	if _, err := snap.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadIndexFrom(&buf)
	if err != nil {
		t.Fatal(err)
	}
	ls := loaded.Current()
	if ls.NumPolygons() != snap.NumPolygons() {
		t.Fatalf("polygon slots: %d, want %d", ls.NumPolygons(), snap.NumPolygons())
	}
	for _, id := range []PolygonID{0, 2} {
		if !ls.Removed(id) {
			t.Errorf("tombstone %d lost in round trip", id)
		}
	}
	if ls.Removed(1) || ls.Removed(addedID) {
		t.Error("live polygon reported removed after round trip")
	}
	probes := []Point{
		{Lon: -73.985, Lat: 40.715}, // was polygon 0, removed
		{Lon: -73.955, Lat: 40.715}, // polygon 1, live
		{Lon: -73.96, Lat: 40.75},   // was polygon 2, removed
		{Lon: -73.89, Lat: 40.61},   // the added square
	}
	for _, p := range probes {
		if a, b := snap.Covers(p), ls.Covers(p); !equalIDs(a, b) {
			t.Errorf("loaded Covers(%v) = %v, want %v", p, b, a)
		}
		if a, b := snap.CoversApprox(p), ls.CoversApprox(p); !equalIDs(a, b) {
			t.Errorf("loaded CoversApprox(%v) = %v, want %v", p, b, a)
		}
	}
}

// TestSnapshotWriteToPinsState: serialization from a pinned snapshot must
// reflect that snapshot's polygon set even after the index moves on.
func TestSnapshotWriteToPinsState(t *testing.T) {
	idx, err := NewIndex(testPolygons())
	if err != nil {
		t.Fatal(err)
	}
	pinned := idx.Current()
	if err := idx.Remove(1); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if _, err := pinned.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadIndexFrom(&buf)
	if err != nil {
		t.Fatal(err)
	}
	inPoly1 := Point{Lon: -73.955, Lat: 40.715}
	if got := loaded.Current().Covers(inPoly1); len(got) != 1 || got[0] != 1 {
		t.Errorf("pinned-snapshot serialization lost polygon 1: %v", got)
	}
	if got := idx.Current().Covers(inPoly1); len(got) != 0 {
		t.Errorf("current snapshot should not see polygon 1: %v", got)
	}
}

func TestReadIndexFromRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("XXXX"),
		[]byte("ACTJ\x01\x00\x00\x00"), // truncated
		[]byte("NOPE\x01\x00\x00\x00\x00\x00\x00\x00"), // bad magic
	}
	for i, c := range cases {
		if _, err := ReadIndexFrom(bytes.NewReader(c)); err == nil {
			t.Errorf("case %d: garbage accepted", i)
		}
	}
}

func TestReadIndexFromDetectsCorruption(t *testing.T) {
	orig, err := NewIndex(testPolygons())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := orig.Current().WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// Flip a byte in the body.
	data[len(data)/2] ^= 0xFF
	if _, err := ReadIndexFrom(bytes.NewReader(data)); err == nil {
		t.Error("corrupted body accepted")
	}
	// Bad version.
	data = append([]byte{}, buf.Bytes()...)
	data[4] = 99
	if _, err := ReadIndexFrom(bytes.NewReader(data)); err == nil {
		t.Error("bad version accepted")
	}
	// Truncation.
	data = buf.Bytes()[:buf.Len()-10]
	if _, err := ReadIndexFrom(bytes.NewReader(data)); err == nil {
		t.Error("truncated file accepted")
	}
}
