package actjoin

import (
	"strings"
	"testing"
)

const sampleFC = `{
  "type": "FeatureCollection",
  "features": [
    {
      "type": "Feature",
      "properties": {"name": "Alpha"},
      "geometry": {
        "type": "Polygon",
        "coordinates": [[[-74.0, 40.70], [-73.97, 40.70], [-73.97, 40.73], [-74.0, 40.73], [-74.0, 40.70]]]
      }
    },
    {
      "type": "Feature",
      "id": 17,
      "properties": {},
      "geometry": {
        "type": "MultiPolygon",
        "coordinates": [
          [[[-73.97, 40.70], [-73.94, 40.70], [-73.94, 40.73], [-73.97, 40.73], [-73.97, 40.70]]],
          [[[-73.99, 40.74], [-73.94, 40.74], [-73.94, 40.79], [-73.99, 40.79], [-73.99, 40.74]],
           [[-73.97, 40.76], [-73.96, 40.76], [-73.96, 40.77], [-73.97, 40.77], [-73.97, 40.76]]]
        ]
      }
    }
  ]
}`

func TestPolygonsFromGeoJSONFeatureCollection(t *testing.T) {
	polys, names, err := PolygonsFromGeoJSON([]byte(sampleFC))
	if err != nil {
		t.Fatal(err)
	}
	if len(polys) != 3 {
		t.Fatalf("got %d polygons, want 3 (one + flattened multipolygon)", len(polys))
	}
	if names[0] != "Alpha" {
		t.Errorf("names[0] = %q", names[0])
	}
	if names[1] != "17" || names[2] != "17" {
		t.Errorf("multipolygon names = %q, %q, want feature id", names[1], names[2])
	}
	if len(polys[0].Exterior) != 4 {
		t.Errorf("closing vertex must be dropped: %d vertices", len(polys[0].Exterior))
	}
	if len(polys[2].Holes) != 1 {
		t.Errorf("hole lost: %d holes", len(polys[2].Holes))
	}

	// The loaded polygons must index and answer correctly.
	idx, err := NewIndex(polys)
	if err != nil {
		t.Fatal(err)
	}
	if got := idx.Current().Covers(Point{Lon: -73.985, Lat: 40.715}); len(got) != 1 || got[0] != 0 {
		t.Errorf("Covers in Alpha = %v", got)
	}
	if got := idx.Current().Covers(Point{Lon: -73.965, Lat: 40.765}); len(got) != 0 {
		t.Errorf("point in hole matched %v", got)
	}
}

func TestPolygonsFromGeoJSONBareGeometry(t *testing.T) {
	bare := `{"type": "Polygon", "coordinates": [[[0,0],[1,0],[1,1],[0,1],[0,0]]]}`
	polys, names, err := PolygonsFromGeoJSON([]byte(bare))
	if err != nil {
		t.Fatal(err)
	}
	if len(polys) != 1 || len(names) != 1 {
		t.Fatalf("bare polygon: %d polys", len(polys))
	}
	if names[0] != "polygon-0" {
		t.Errorf("bare geometry name = %q, want fallback polygon-0", names[0])
	}
	if len(polys[0].Exterior) != 4 || len(polys[0].Holes) != 0 {
		t.Errorf("bare polygon shape: %d vertices, %d holes", len(polys[0].Exterior), len(polys[0].Holes))
	}

	// A bare MultiPolygon flattens to one polygon per member, holes kept.
	multi := `{"type": "MultiPolygon", "coordinates": [
	  [[[0,0],[1,0],[1,1],[0,1],[0,0]]],
	  [[[2,0],[6,0],[6,4],[2,4],[2,0]], [[3,1],[4,1],[4,2],[3,2],[3,1]]]
	]}`
	polys, names, err = PolygonsFromGeoJSON([]byte(multi))
	if err != nil {
		t.Fatal(err)
	}
	if len(polys) != 2 || len(names) != 2 {
		t.Fatalf("bare multipolygon: %d polys", len(polys))
	}
	if len(polys[1].Holes) != 1 {
		t.Errorf("bare multipolygon member lost its hole: %d holes", len(polys[1].Holes))
	}

	// The parsed document must index and answer correctly end to end.
	idx, _, err := NewIndexFromGeoJSON([]byte(multi))
	if err != nil {
		t.Fatal(err)
	}
	snap := idx.Current()
	if got := snap.Covers(Point{Lon: 5, Lat: 3}); len(got) != 1 || got[0] != 1 {
		t.Errorf("Covers in member 1 = %v", got)
	}
	if got := snap.Covers(Point{Lon: 3.5, Lat: 1.5}); len(got) != 0 {
		t.Errorf("point in hole matched %v", got)
	}
}

func TestPolygonsFromGeoJSONSingleFeature(t *testing.T) {
	f := `{"type": "Feature", "properties": {}, "geometry": {"type": "Polygon",
	       "coordinates": [[[0,0],[2,0],[2,2],[0,2],[0,0]]]}}`
	polys, names, err := PolygonsFromGeoJSON([]byte(f))
	if err != nil || len(polys) != 1 {
		t.Fatalf("single feature: %v, %d polys", err, len(polys))
	}
	if names[0] != "polygon-0" {
		t.Errorf("bare feature name = %q", names[0])
	}

	// A bare Feature carrying a MultiPolygon flattens like a collection
	// member does.
	mf := `{"type": "Feature", "properties": {"name": "ignored for bare features"},
	        "geometry": {"type": "MultiPolygon", "coordinates": [
	          [[[0,0],[1,0],[1,1],[0,1],[0,0]]],
	          [[[2,0],[3,0],[3,1],[2,1],[2,0]]]
	        ]}}`
	polys, _, err = PolygonsFromGeoJSON([]byte(mf))
	if err != nil || len(polys) != 2 {
		t.Fatalf("bare feature multipolygon: %v, %d polys", err, len(polys))
	}
}

func TestNewIndexFromGeoJSON(t *testing.T) {
	idx, names, err := NewIndexFromGeoJSON([]byte(sampleFC), WithPrecision(30))
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 3 || names[0] != "Alpha" {
		t.Fatalf("names = %v", names)
	}
	snap := idx.Current()
	if snap.Precision() != 30 {
		t.Errorf("precision lost: %v", snap.Precision())
	}
	if got := snap.Covers(Point{Lon: -73.985, Lat: 40.715}); len(got) != 1 || got[0] != 0 {
		t.Errorf("Covers in Alpha = %v", got)
	}

	// Errors from both stages must surface: parse errors and build errors.
	if _, _, err := NewIndexFromGeoJSON([]byte(`{"type":"Point","coordinates":[1,2]}`)); err == nil {
		t.Error("unsupported geometry must fail")
	}
	outOfRange := `{"type": "Polygon", "coordinates": [[[500,0],[501,0],[501,1],[500,1],[500,0]]]}`
	if _, _, err := NewIndexFromGeoJSON([]byte(outOfRange)); err == nil {
		t.Error("out-of-range polygon must fail index construction")
	}
}

func TestPolygonsFromGeoJSONErrors(t *testing.T) {
	cases := []string{
		`not json`,
		`{"type": "Point", "coordinates": [1, 2]}`,
		`{"type": "FeatureCollection", "features": []}`,
		`{"type": "Polygon", "coordinates": [[[0,0],[1,1],[0,0]]]}`,     // too few positions
		`{"type": "Polygon", "coordinates": [[[0,0],[1],[1,1],[0,1]]]}`, // short position
		`{"type": "Polygon", "coordinates": []}`,                        // no rings
		`{"type": "Feature", "properties": {}}`,                         // no geometry
	}
	for i, c := range cases {
		if _, _, err := PolygonsFromGeoJSON([]byte(c)); err == nil {
			t.Errorf("case %d: expected error for %s", i, c)
		}
	}
}

func TestGeoJSONRoundTrip(t *testing.T) {
	polys, names, err := PolygonsFromGeoJSON([]byte(sampleFC))
	if err != nil {
		t.Fatal(err)
	}
	out, err := MarshalGeoJSON(polys, names)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(out), "FeatureCollection") {
		t.Error("marshalled output missing FeatureCollection")
	}
	back, names2, err := PolygonsFromGeoJSON(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(polys) {
		t.Fatalf("round trip lost polygons: %d vs %d", len(back), len(polys))
	}
	for i := range back {
		if len(back[i].Exterior) != len(polys[i].Exterior) {
			t.Errorf("polygon %d vertex count changed", i)
		}
		if len(back[i].Holes) != len(polys[i].Holes) {
			t.Errorf("polygon %d holes changed", i)
		}
		if names2[i] != names[i] {
			t.Errorf("polygon %d name changed: %q vs %q", i, names2[i], names[i])
		}
	}
}
