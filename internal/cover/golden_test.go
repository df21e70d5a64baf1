package cover

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"testing"

	"actjoin/internal/cellid"
	"actjoin/internal/dataset"
	"actjoin/internal/geom"
)

// Golden coverings pin the output of Covering and InteriorCovering for a
// few fixed shapes by value, in the manner of the S2 region-coverer tests:
// a change to RelateRect or to the coverer that moves any cell shows up
// here as a token diff, not only as a broken invariant.

// goldenShapes are the pinned inputs: a convex square, a concave notch
// whose spike reaches almost across the shell, a shell with a hole, a
// square straddling the lon = -60 cube-face seam, and one generated NYC
// neighborhood (jittered 32-vertex ring).
func goldenShapes() []struct {
	name string
	poly *geom.Polygon
} {
	return []struct {
		name string
		poly *geom.Polygon
	}{
		{"square", nycSquare(0.02)},
		{"spike", geom.MustPolygon(geom.Ring{
			{X: -74.00, Y: 40.70}, {X: -73.96, Y: 40.70}, {X: -73.96, Y: 40.74},
			{X: -73.979, Y: 40.74}, {X: -73.98, Y: 40.7005}, {X: -73.981, Y: 40.74},
			{X: -74.00, Y: 40.74},
		})},
		{"hole", geom.MustPolygon(
			geom.Ring{{X: -74, Y: 40.7}, {X: -73.9, Y: 40.7}, {X: -73.9, Y: 40.8}, {X: -74, Y: 40.8}},
			geom.Ring{{X: -73.97, Y: 40.73}, {X: -73.93, Y: 40.73}, {X: -73.93, Y: 40.77}, {X: -73.97, Y: 40.77}},
		)},
		{"seam", geom.MustPolygon(geom.Ring{
			{X: -60.05, Y: 10}, {X: -59.95, Y: 10}, {X: -59.95, Y: 10.1}, {X: -60.05, Y: 10.1},
		})},
		{"neighborhood", dataset.NYCNeighborhoods(dataset.ScaleTiny).Generate()[14]},
	}
}

// Small budgets keep the pinned token lists readable; the default budgets
// are pinned by digest below.
var (
	goldenCoveringOpt = Options{MaxCells: 16, MaxLevel: MaxSupportedLevel}
	goldenInteriorOpt = Options{MaxCells: 24, MaxLevel: 20}
)

// goldenTokens holds Covering then InteriorCovering tokens per shape, at
// the small budgets above.
var goldenTokens = map[string][2]string{
	"square": {
		"78347edd 78347edf 78347ee1 78347ee3 78347ee5 78347ee7 78347efb 78347efd 78347f04 78347f0c 78347f14 78347f1c 78347f24 78347f3c",
		"78347ede4 78347edf74 78347edf7c 78347edfc 78347ee1 78347ee3 78347ee6b 78347ee6d 78347f1c 78347f224 78347f22c 78347f23cc 78347f23d4 78347f3d1ed 78347f3d1ef 78347f3d1f4 78347f3d1fc 78347f3d3 78347f3d5",
	},
	"spike": {
		"78347e84 78347e8c 78347e94 78347e9c 78347eb 78347ec4 78347edc 78347ee4 78347eec 78347ef4 78347efc 78347f04 78347f1c 78347f24",
		"78347e91 78347e93 78347ea4c 78347ea583 78347ea585 78347ea5864 78347ea586c 78347ea594 78347ea59c 78347ea5b 78347ebb4 78347ebbc 78347ebd 78347ebf 78347efb 78347efd 78347f021 78347f0244 78347f025c 78347f027 78347f1d9 78347f1df",
	},
	"hole": {
		"7833809 783380b 7833875 7833877 783478c 7834791 7834793 7834795 7834797 78347e9 78347eb 78347ed 78347ef 78347f4",
		"783380a4 783380ac 783380b1 783380b3 78338743 78338745 783387469 78338746b 78338746ec 78338746f4 7833874d 7833874f 78338754 7833875c 783478a4 783478ac 783478e4 783478ec 78347944 7834794c 78347eb4 78347ebc",
	},
	"seam": {
		"7f80a71 7f80a73 7f80a75 7f80a77 7f80a79 7f80a7b 7f80a7d 7f80a7f 7f80a81 7f80a87 807f57c 807f584 807f589 807f58b 807f58d 807f58f",
		"7f80a70c 7f80a714 7f80a77 7f80a79 7f80a7f 807f57e3 807f57e5 807f57e64 807f57e6c 807f57e7d4c 807f57e7d54 807f57f4 807f57fc 807f581 807f587 807f589 807f58a4 807f58af4 807f58afc 807f58bc 807f58ec 807f58f4",
	},
	"neighborhood": {
		"78347c1 78347c3 78347c5 78347c7 78347cc 78347d1 78347d7 78347dc 78347e1 78347e7 78347e9 78347eb 783480b 7834875 7834877 7834879",
		"78347c3 78347c5 78347c674 78347c67c 78347cf0b 78347cf0d 78347cf5 78347cf7 78347d04 78347d0c 78347d11 78347dc 78347e09 78347e0b 78347e0c9 78347e0cb 78347e0cec 78347e0cf4 783487884 78348788c",
	},
}

// goldenDefaultDigests holds, per shape, the cell counts and a sha256 prefix
// of the space-joined tokens of Covering and InteriorCovering at the
// paper's default options.
var goldenDefaultDigests = map[string]string{
	"square":       "128 86a656232b7313e9 185 402325c7ca915f39",
	"spike":        "126 c832c7ff637d34da 239 3ac5ca0ff29a2b0e",
	"hole":         "128 a8f372cede40df6b 238 1164d4368bb18abf",
	"seam":         "128 6a5be6e54f166a06 224 102cc9a24b5f6272",
	"neighborhood": "127 8a3e986aba88248f 234 a25bf8bc0721989c",
}

func tokens(cells []cellid.CellID) string {
	s := make([]string, len(cells))
	for i, c := range cells {
		s[i] = c.Token()
	}
	return strings.Join(s, " ")
}

func digest(cells []cellid.CellID) string {
	sum := sha256.Sum256([]byte(tokens(cells)))
	return hex.EncodeToString(sum[:8])
}

func TestGoldenCoverings(t *testing.T) {
	for _, sh := range goldenShapes() {
		cov := tokens(Covering(sh.poly, goldenCoveringOpt))
		in := tokens(InteriorCovering(sh.poly, goldenInteriorOpt))
		want, ok := goldenTokens[sh.name]
		if !ok || cov != want[0] || in != want[1] {
			t.Errorf("%s: coverings moved; got\n\t%q: {\n\t\t%q,\n\t\t%q,\n\t},", sh.name, sh.name, cov, in)
		}
	}
}

func TestGoldenDefaultCoverings(t *testing.T) {
	for _, sh := range goldenShapes() {
		cov := Covering(sh.poly, DefaultCoveringOptions())
		in := InteriorCovering(sh.poly, DefaultInteriorOptions())
		got := fmt.Sprintf("%d %s %d %s", len(cov), digest(cov), len(in), digest(in))
		if want := goldenDefaultDigests[sh.name]; got != want {
			t.Errorf("%s: default coverings moved; got\n\t%q: %q,", sh.name, sh.name, got)
		}
	}
}
