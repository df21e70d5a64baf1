package actjoin

import (
	"bytes"
	"math"
	"testing"

	"actjoin/internal/geom"
)

// fuzzSeedGeoJSON is the shared seed document: one well-formed triangle
// feature, enough to build a non-trivial index.
const fuzzSeedGeoJSON = `{"type":"FeatureCollection","features":[{"type":"Feature","properties":{"name":"tri"},"geometry":{"type":"Polygon","coordinates":[[[0,0],[1,0],[1,1],[0,0]]]}}]}`

// FuzzGeoJSON feeds arbitrary bytes to the GeoJSON front door. Malformed
// documents must produce an error, never a panic; documents that parse must
// yield an index whose exact results are a subset of the approximate
// candidate set (the filter may over-approximate but never lose a hit).
// Documents small enough to refine cheaply are also built with a precision
// bound, which must hold at every probe (see checkFuzzPrecision).
func FuzzGeoJSON(f *testing.F) {
	f.Add([]byte(fuzzSeedGeoJSON))
	f.Add([]byte(`{"type":"Polygon","coordinates":[[[8,47],[9,47],[9,48],[8,48],[8,47]]]}`))
	f.Add([]byte(`{"type":"MultiPolygon","coordinates":[[[[0,0],[2,0],[2,2],[0,2],[0,0]]],[[[5,5],[6,5],[6,6],[5,5]]]]}`))
	f.Add([]byte(`{"type":"GeometryCollection"}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<16 {
			t.Skip("oversized input")
		}
		ix, names, err := NewIndexFromGeoJSON(data)
		if err != nil {
			return
		}
		snap := ix.Current()
		if snap.NumPolygons() != len(names) {
			t.Fatalf("index has %d polygons but %d names", snap.NumPolygons(), len(names))
		}
		for _, p := range []Point{{Lon: 0.5, Lat: 0.5}, {Lon: 8.5, Lat: 47.5}, {Lon: -170, Lat: -80}} {
			approx := snap.CoversApprox(p)
			for _, id := range snap.Covers(p) {
				if !fuzzContainsID(approx, id) {
					t.Fatalf("exact hit %d at %v missing from approximate candidates %v", id, p, approx)
				}
			}
		}
		if err := ix.Close(); err != nil {
			t.Fatal(err)
		}
		checkFuzzPrecision(t, data)
	})
}

// Limits on the documents checkFuzzPrecision builds with a precision bound.
// The refined cell count grows with the boundary length over the bound, so
// the length budget is what keeps one iteration cheap.
const (
	fuzzPrecisionMeters  = 50
	fuzzPrecisionEdges   = 4096
	fuzzPrecisionLengthM = 1.5e6
)

// checkFuzzPrecision builds the document's polygons with
// WithPrecision(fuzzPrecisionMeters) and probes an 8×8 grid inside each
// polygon's bound, plus points offset from the midpoints of its first 32
// edges by half and by 1.2 times the bound along each axis. At every probe
// the exact hits must be approximate candidates, and every approximate
// false positive must lie within the bound of its polygon.
func checkFuzzPrecision(t *testing.T, data []byte) {
	polys, _, err := PolygonsFromGeoJSON(data)
	if err != nil {
		t.Fatalf("a document NewIndexFromGeoJSON accepted fails to parse: %v", err)
	}
	geoms := make([]*geom.Polygon, len(polys))
	edges, length := 0, 0.0
	for i, p := range polys {
		g, err := toGeom(p)
		if err != nil {
			t.Fatalf("polygon %d: %v", i, err)
		}
		geoms[i] = g
		edges += g.NumEdges()
		for k := 0; k < g.NumEdges(); k++ {
			e := g.Edge(k)
			length += geom.DistanceMeters(e.A, e.B)
		}
	}
	if edges > fuzzPrecisionEdges || !(length <= fuzzPrecisionLengthM) {
		return
	}
	ix, err := NewIndex(polys, WithPrecision(fuzzPrecisionMeters))
	if err != nil {
		t.Fatalf("a document NewIndex accepted fails with a precision bound: %v", err)
	}
	defer func() {
		if err := ix.Close(); err != nil {
			t.Fatal(err)
		}
	}()
	snap := ix.Current()
	var probes []geom.Point
	for _, g := range geoms {
		b := g.Bound()
		for i := 0; i < 8; i++ {
			for j := 0; j < 8; j++ {
				probes = append(probes, geom.Point{X: b.Lo.X + (float64(i)+0.5)/8*b.Width(), Y: b.Lo.Y + (float64(j)+0.5)/8*b.Height()})
			}
		}
		for k := 0; k < g.NumEdges() && k < 32; k++ {
			e := g.Edge(k)
			mid := geom.Point{X: (e.A.X + e.B.X) / 2, Y: (e.A.Y + e.B.Y) / 2}
			for _, f := range []float64{0.5, 1.2} {
				dy := f * fuzzPrecisionMeters / geom.MetersPerDegreeLat
				dx := dy / math.Max(math.Cos(mid.Y*math.Pi/180), 1e-3)
				probes = append(probes,
					geom.Point{X: mid.X - dx, Y: mid.Y}, geom.Point{X: mid.X + dx, Y: mid.Y},
					geom.Point{X: mid.X, Y: mid.Y - dy}, geom.Point{X: mid.X, Y: mid.Y + dy})
			}
		}
	}
	for _, gp := range probes {
		if gp.X < -180 || gp.X > 180 || gp.Y < -90 || gp.Y > 90 {
			continue
		}
		p := Point{Lon: gp.X, Lat: gp.Y}
		approx := snap.CoversApprox(p)
		for _, id := range snap.Covers(p) {
			if !fuzzContainsID(approx, id) {
				t.Fatalf("precision index: exact hit %d at %v missing from approximate candidates %v", id, p, approx)
			}
		}
		for _, id := range approx {
			if d := geom.DistanceToPolygonMeters(gp, geoms[id]); d > fuzzPrecisionMeters {
				t.Fatalf("approximate candidate %d at %v lies %.2f m from its polygon, over the %v m bound", id, p, d, fuzzPrecisionMeters)
			}
		}
	}
}

func fuzzContainsID(ids []PolygonID, id PolygonID) bool {
	for _, v := range ids {
		if v == id {
			return true
		}
	}
	return false
}

// FuzzSerializeRoundTrip feeds arbitrary bytes to the index deserializer.
// Corrupt files must produce an error, never a panic or OOM; files that load
// must re-serialize byte-stably (write → read → write yields identical
// bytes), which is what makes on-disk indexes diffable and cacheable.
func FuzzSerializeRoundTrip(f *testing.F) {
	ix, _, err := NewIndexFromGeoJSON([]byte(fuzzSeedGeoJSON))
	if err != nil {
		f.Fatal(err)
	}
	var seed bytes.Buffer
	if _, err := ix.Current().WriteTo(&seed); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes())
	f.Add([]byte("ACTJ"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<20 {
			t.Skip("oversized input")
		}
		in, err := ReadIndexFrom(bytes.NewReader(data))
		if err != nil {
			return
		}
		var first bytes.Buffer
		if _, err := in.Current().WriteTo(&first); err != nil {
			t.Fatalf("serializing loaded index: %v", err)
		}
		again, err := ReadIndexFrom(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("re-reading a just-written index: %v", err)
		}
		var second bytes.Buffer
		if _, err := again.Current().WriteTo(&second); err != nil {
			t.Fatalf("serializing re-read index: %v", err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("serialization is not byte-stable: first write %d bytes, second %d bytes", first.Len(), second.Len())
		}
	})
}
