package main

import (
	"path/filepath"
	"strings"
	"testing"
)

// benchDef is BENCHMARK.json as the tests read it.
type benchDef struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []benchMetric `json:"end_to_end"`
	PerLayer []benchMetric `json:"per_layer"`
}

func loadBench(t *testing.T) benchDef {
	t.Helper()
	var b benchDef
	if err := readJSON(filepath.Join("..", "..", "BENCHMARK.json"), &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestBenchmarkMatchesCatalog keeps BENCHMARK.json and the program in step:
// the same workloads, and exactly the gated metrics with their units and
// directions, end-to-end ones under end_to_end and per-layer ones under
// per_layer.
func TestBenchmarkMatchesCatalog(t *testing.T) {
	b := loadBench(t)
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	var ours []string
	for _, w := range workloads {
		ours = append(ours, w.name)
	}
	if strings.Join(names, ",") != strings.Join(ours, ",") {
		t.Errorf("BENCHMARK.json workloads %v, program %v", names, ours)
	}
	listed := map[string]benchMetric{}
	for _, m := range b.EndToEnd {
		listed[m.Name] = m
	}
	for _, m := range b.PerLayer {
		if _, dup := listed[m.Name]; dup {
			t.Errorf("%s listed twice", m.Name)
		}
		listed[m.Name] = m
	}
	for _, d := range catalog {
		m, ok := listed[d.name]
		if ok != d.gated {
			t.Errorf("%s: listed in BENCHMARK.json %v, gated %v", d.name, ok, d.gated)
			continue
		}
		delete(listed, d.name)
		if !ok {
			continue
		}
		if m.Unit != d.unit || m.Better != d.better {
			t.Errorf("%s: BENCHMARK.json says %s/%s, the program %s/%s", d.name, m.Unit, m.Better, d.unit, d.better)
		}
		if inLayer := containsMetric(b.PerLayer, d.name); inLayer != d.layer {
			t.Errorf("%s: under per_layer %v, per-layer metric %v", d.name, inLayer, d.layer)
		}
	}
	for name := range listed {
		t.Errorf("BENCHMARK.json lists %s, which the program does not report", name)
	}
}

func containsMetric(ms []benchMetric, name string) bool {
	for _, m := range ms {
		if m.Name == name {
			return true
		}
	}
	return false
}

// TestSmokeEveryWorkload runs every workload untraced and traced at smoke
// size and checks that each emits every metric BENCHMARK.json lists for its
// mode, with its unit, and that no call or check failed.
func TestSmokeEveryWorkload(t *testing.T) {
	b := loadBench(t)
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			rec, _, failures := runOnce(config{workload: w.name, seed: 1, seconds: 0.3, trace: trace, smoke: true})
			want := b.EndToEnd
			if trace {
				want = b.PerLayer
			}
			if !rec.Correct || rec.Metrics["error_rate"].Value != 0 {
				t.Errorf("%s trace=%v: %d of %d failed: %v", w.name, trace, rec.Failed, rec.Attempted, failures)
			}
			for _, m := range want {
				got, ok := rec.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: %s not reported", w.name, trace, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s trace=%v: %s in %s, want %s", w.name, trace, m.Name, got.Unit, m.Unit)
				}
			}
		}
	}
}

// TestCorruptReferenceIsCaught proves the checks are not vacuous: with one
// reference count falsified, the per-batch checks of a join workload and the
// closing check of churn must fail.
func TestCorruptReferenceIsCaught(t *testing.T) {
	for _, name := range []string{"join-taxi", "churn"} {
		rec, _, _ := runOnce(config{workload: name, seed: 1, seconds: 0.2, smoke: true, corrupt: true})
		if rec.Correct || rec.Failed == 0 || rec.Metrics["error_rate"].Value == 0 {
			t.Errorf("%s: a corrupted reference passed (%d of %d failed)", name, rec.Failed, rec.Attempted)
		}
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if q1, q2, q3 := quartiles(xs); q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, q2, q3 := quartiles([]float64{4, 1, 2}); q1 != 1 || q2 != 2 || q3 != 4 {
		t.Errorf("quartiles = %v %v %v, want 1 2 4", q1, q2, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	if q1, q2, q3 := quartiles([]float64{2, 1}); q1 != 0.75 || q2 != 1.5 || q3 != 2.25 {
		t.Errorf("quartiles = %v %v %v, want 0.75 1.5 2.25", q1, q2, q3)
	}
}

// series returns n values around center: center·(1 + jitter·k/n) for k in
// [-n/2, n/2), a spread of about jitter around the center.
func series(center, jitter float64, n int) []float64 {
	out := make([]float64, n)
	for k := range out {
		out[k] = center * (1 + jitter*float64(k-n/2)/float64(n))
	}
	return out
}

func pairsOf(a, b []float64) [][2]float64 {
	var p [][2]float64
	for i := range a {
		p = append(p, [2]float64{a[i], b[i]})
	}
	return p
}

func TestJudgeVerdicts(t *testing.T) {
	base := series(100, 0.02, 10)
	cases := []struct {
		name   string
		change []float64
		higher bool
		bound  float64
		want   string
	}{
		{"clear gain", series(120, 0.02, 10), true, 0.1, "improved"},
		{"clear loss", series(80, 0.02, 10), true, 0.1, "regressed"},
		{"loss within bound", series(95, 0.02, 10), true, 0.1, "unchanged"},
		{"same", series(100, 0.02, 10), true, 0.1, "unchanged"},
		{"lower is better, gain", series(80, 0.02, 10), false, 0.1, "improved"},
		{"lower is better, loss", series(120, 0.02, 10), false, 0.1, "regressed"},
	}
	for _, c := range cases {
		got := judge(base, c.change, pairsOf(base, c.change), c.higher, c.bound)
		if got.verdict != c.want {
			t.Errorf("%s: verdict %s, want %s (base %v change %v)", c.name, got.verdict, c.want, got.base, got.change)
		}
	}

	// With a bound of zero and no spread, any loss is a regression.
	flat := series(1, 0, 10)
	if got := judge(flat, series(1.01, 0, 10), pairsOf(flat, series(1.01, 0, 10)), false, 0); got.verdict != "regressed" {
		t.Errorf("bound zero: verdict %s, want regressed", got.verdict)
	}
	// A base spread wider than the bound leaves a small loss unresolved...
	wide := series(100, 0.6, 10)
	if got := judge(wide, series(97, 0.6, 10), pairsOf(wide, series(97, 0.6, 10)), true, 0.1); got.verdict != "unresolved" {
		t.Errorf("wide spread: verdict %s, want unresolved", got.verdict)
	}
	// ...unless every change run reads better than every base run.
	above := series(140, 0.01, 10)
	if got := judge(wide, above, nil, true, 0.1); got.verdict != "unchanged" {
		t.Errorf("wide spread, all better, unpaired: verdict %s, want unchanged", got.verdict)
	}
	// A gain needs nine tenths of the pairs: eight wins of ten is not one.
	mostly := series(120, 0.02, 10)
	p := pairsOf(base, mostly)
	p[0][1], p[1][1] = 50, 50
	if got := judge(base, mostly, p, true, 0.1); got.verdict == "improved" || got.wins != 8 {
		t.Errorf("8 of 10 wins: verdict %s with %d wins, want no gain", got.verdict, got.wins)
	}
}

func TestCompareRunsPairsBySeedAndFailsBadRuns(t *testing.T) {
	metrics := []benchMetric{{Name: "throughput_per_s", Unit: "1/s", Better: "higher", Bound: 0.1}}
	run := func(seed int64, v float64, correct bool) runRecord {
		return runRecord{Workload: "w", Seed: seed, Correct: correct, Attempted: 1,
			Metrics: map[string]metric{"throughput_per_s": {Value: v, Unit: "1/s"}}}
	}
	var base, change []runRecord
	for s := int64(1); s <= 10; s++ {
		base = append(base, run(s, 100+float64(s), true))
		change = append(change, run(s, 70+float64(s), true))
	}
	rows, status := compareRuns(metrics, base, change)
	if status != 1 || len(rows) != 1 || !strings.HasSuffix(rows[0], "regressed") || !strings.Contains(rows[0], "0/10") {
		t.Errorf("regression: status %d rows %q", status, rows)
	}
	change[3].Correct = false
	change[3].Failed = 1
	for i := range change {
		change[i].Metrics = base[i].Metrics
	}
	rows, status = compareRuns(metrics, base, change)
	if status != 1 || !strings.Contains(strings.Join(rows, "\n"), "failed its checks") {
		t.Errorf("failed run: status %d rows %q", status, rows)
	}
}
