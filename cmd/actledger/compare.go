package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"sort"
)

// benchMetric is one metric of BENCHMARK.json.
type benchMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// benchFile is the part of BENCHMARK.json the comparator reads.
type benchFile struct {
	EndToEnd []benchMetric `json:"end_to_end"`
}

// comparison is the verdict on one workload × metric.
type comparison struct {
	base, change [3]float64 // quartiles: q1, median, q3
	wins, pairs  int        // pairs the change reads better in; pairs run
	verdict      string
}

// judge compares the runs of a base and a change on one metric: a gain
// needs the change to win at least nine tenths of the paired runs (ties
// count for neither) and the medians to differ by more than the base's
// interquartile spread; where the base's
// spread is wider than the bound the metric is unresolved, unless every
// change run reads better than every base run; otherwise the change
// regresses when its median is worse than the base's by more than bound (a
// share of the base median), and is unchanged if not.
func judge(base, change []float64, pairs [][2]float64, higher bool, bound float64) comparison {
	c := comparison{pairs: len(pairs)}
	c.base[0], c.base[1], c.base[2] = quartiles(base)
	c.change[0], c.change[1], c.change[2] = quartiles(change)
	better := func(x, y float64) bool {
		if higher {
			return x > y
		}
		return x < y
	}
	for _, p := range pairs {
		if better(p[1], p[0]) {
			c.wins++
		}
	}
	allBetter := len(base) > 0 && len(change) > 0
	for _, b := range base {
		for _, x := range change {
			allBetter = allBetter && better(x, b)
		}
	}
	medA, medB := c.base[1], c.change[1]
	spread := c.base[2] - c.base[0]
	worse := relative(medA, medB)
	if higher {
		worse = -worse
	}
	switch {
	case c.pairs > 0 && 10*c.wins >= 9*c.pairs && math.Abs(medB-medA) > spread && better(medB, medA):
		c.verdict = "improved"
	case spread > bound*math.Abs(medA) && !allBetter:
		c.verdict = "unresolved"
	case worse > bound:
		c.verdict = "regressed"
	default:
		c.verdict = "unchanged"
	}
	return c
}

// relative returns (b-a)/|a|, treating any change from 0 as infinite.
func relative(a, b float64) float64 {
	switch {
	case a != 0:
		return (b - a) / math.Abs(a)
	case b > a:
		return math.Inf(1)
	case b < a:
		return math.Inf(-1)
	}
	return 0
}

// compareMain implements "actledger compare [-bench FILE] BASE.json
// [CHANGE.json]". With one file, its set 0 is the base and its set 1 the
// change. It prints one row per workload × end-to-end metric and returns 1
// when any metric regressed.
func compareMain(args []string, w io.Writer) int {
	fs := flag.NewFlagSet("actledger compare", flag.ContinueOnError)
	benchPath := fs.String("bench", "BENCHMARK.json", "benchmark definition holding the metrics' directions and bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() < 1 || fs.NArg() > 2 {
		fmt.Fprintln(fs.Output(), "usage: actledger compare [-bench BENCHMARK.json] BASE.json [CHANGE.json]")
		return 2
	}
	var bench benchFile
	if err := readJSON(*benchPath, &bench); err != nil {
		fmt.Fprintln(fs.Output(), "actledger:", err)
		return 2
	}
	var base, change []runRecord
	var a ledgerFile
	if err := readJSON(fs.Arg(0), &a); err != nil {
		fmt.Fprintln(fs.Output(), "actledger:", err)
		return 2
	}
	if fs.NArg() == 2 {
		var b ledgerFile
		if err := readJSON(fs.Arg(1), &b); err != nil {
			fmt.Fprintln(fs.Output(), "actledger:", err)
			return 2
		}
		base, change = a.Runs, b.Runs
	} else {
		for _, r := range a.Runs {
			switch r.Set {
			case 0:
				base = append(base, r)
			case 1:
				change = append(change, r)
			}
		}
	}
	rows, status := compareRuns(bench.EndToEnd, base, change)
	fmt.Fprintf(w, "%-20s %-18s %-34s %-34s %8s %6s  %s\n", "workload", "metric", "base median [q1, q3]", "change median [q1, q3]", "change", "wins", "verdict")
	for _, r := range rows {
		fmt.Fprintln(w, r)
	}
	return status
}

// compareRuns judges every workload × metric that both sides ran, pairing
// runs by seed, and formats one row each. Incorrect runs are reported and
// make the comparison fail.
func compareRuns(metrics []benchMetric, base, change []runRecord) (rows []string, status int) {
	type key struct {
		workload string
		seed     int64
	}
	index := func(runs []runRecord) (map[key]runRecord, []string) {
		m := map[key]runRecord{}
		var order []string
		seen := map[string]bool{}
		for _, r := range runs {
			if r.Trace {
				continue
			}
			m[key{r.Workload, r.Seed}] = r
			if !seen[r.Workload] {
				seen[r.Workload] = true
				order = append(order, r.Workload)
			}
		}
		return m, order
	}
	bm, order := index(base)
	cm, _ := index(change)
	for _, runs := range []map[key]runRecord{bm, cm} {
		for k, r := range runs {
			if !r.Correct {
				rows = append(rows, fmt.Sprintf("%s seed %d: run failed its checks (%d of %d)", k.workload, k.seed, r.Failed, r.Attempted))
				status = 1
			}
		}
	}
	sort.Strings(rows)
	for _, wl := range order {
		var seeds []int64
		for k := range bm {
			if k.workload == wl {
				seeds = append(seeds, k.seed)
			}
		}
		sort.Slice(seeds, func(i, j int) bool { return seeds[i] < seeds[j] })
		for _, m := range metrics {
			var a, b []float64
			var pairs [][2]float64
			for k, r := range cm {
				if v, ok := r.Metrics[m.Name]; ok && k.workload == wl {
					b = append(b, v.Value)
				}
			}
			for _, s := range seeds {
				av, ok := bm[key{wl, s}].Metrics[m.Name]
				if !ok {
					continue
				}
				a = append(a, av.Value)
				if bv, ok := cm[key{wl, s}].Metrics[m.Name]; ok {
					pairs = append(pairs, [2]float64{av.Value, bv.Value})
				}
			}
			if len(a) == 0 || len(b) == 0 {
				continue
			}
			c := judge(a, b, pairs, m.Better == "higher", m.Bound)
			if c.verdict == "regressed" {
				status = 1
			}
			rows = append(rows, fmt.Sprintf("%-20s %-18s %-34s %-34s %+7.1f%% %6s  %s",
				wl, m.Name, quart(c.base), quart(c.change), 100*relative(c.base[1], c.change[1]),
				fmt.Sprintf("%d/%d", c.wins, c.pairs), c.verdict))
		}
	}
	return rows, status
}

func quart(q [3]float64) string {
	return fmt.Sprintf("%.4g [%.4g, %.4g]", q[1], q[0], q[2])
}
