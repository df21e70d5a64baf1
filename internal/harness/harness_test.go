package harness

import (
	"bytes"
	"strings"
	"testing"

	"actjoin/internal/dataset"
)

// tinyEnv builds an environment small enough to run every experiment in a
// unit test.
func tinyEnv() *Env {
	return NewEnv(Config{
		Scale:             dataset.ScaleTiny,
		Points:            20_000,
		TrainPoints:       5_000,
		Threads:           []int{1, 2},
		MaxThreads:        2,
		PrecisionLevelCap: 17,
	})
}

func TestRegistryComplete(t *testing.T) {
	// Every table (1-7) and figure (7-11) of the paper must be present, plus
	// the batch-engine, snapshot-API and sharded-engine experiments.
	want := []string{
		"table1", "table2", "table3", "table4", "table5", "table6", "table7",
		"fig7left", "fig7mid", "fig7right", "fig8", "fig9", "fig10", "fig11",
		"batch", "snapshot", "shard",
	}
	for _, id := range want {
		if _, ok := ByID(id); !ok {
			t.Errorf("experiment %s missing from registry", id)
		}
	}
	if len(All()) != len(want) {
		t.Errorf("registry has %d experiments, want %d", len(All()), len(want))
	}
	if len(IDs()) != len(want) {
		t.Errorf("IDs() returned %d", len(IDs()))
	}
	if _, ok := ByID("nope"); ok {
		t.Error("unknown id must not resolve")
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{Scale: dataset.ScaleSmall}.withDefaults()
	if c.Points == 0 || c.TrainPoints == 0 || len(c.Threads) == 0 || c.MaxThreads == 0 {
		t.Errorf("defaults not filled: %+v", c)
	}
	tiny := Config{Scale: dataset.ScaleTiny}.withDefaults()
	if tiny.Points >= c.Points {
		t.Error("tiny scale must use fewer points")
	}
	paper := Config{Scale: dataset.ScalePaper}.withDefaults()
	if paper.Points <= c.Points {
		t.Error("paper scale must use more points")
	}
}

func TestEnvCaching(t *testing.T) {
	e := tinyEnv()
	p1 := e.Polygons("neighborhoods")
	p2 := e.Polygons("neighborhoods")
	if &p1[0] != &p2[0] {
		t.Error("polygons must be cached")
	}
	e1 := e.EncodedPrecision("neighborhoods", Precision{60, "60m"})
	e2 := e.EncodedPrecision("neighborhoods", Precision{60, "60m"})
	if e1 != e2 {
		t.Error("encodings must be cached")
	}
	ps1 := e.TaxiPoints("neighborhoods")
	ps2 := e.TaxiPoints("neighborhoods")
	if ps1 != ps2 {
		t.Error("point sets must be cached")
	}
}

func TestEnvUnknownDatasetPanics(t *testing.T) {
	e := tinyEnv()
	defer func() {
		if recover() == nil {
			t.Error("unknown dataset must panic")
		}
	}()
	e.Polygons("atlantis")
}

// Each experiment must run at tiny scale and produce a table mentioning its
// key terms.
func TestExperimentsRunTiny(t *testing.T) {
	e := tinyEnv()
	expect := map[string][]string{
		"table1":    {"dataset", "cells[M]", "boroughs", "census"},
		"table2":    {"ACT1", "GBT", "LB", "size[MiB]"},
		"table3":    {"b over n", "ACT4"},
		"table4":    {"uniform", "taxi", "L1"},
		"table5":    {"ns/point", "node-accesses", "comparisons"},
		"table6":    {"train-points", "neighborhoods"},
		"table7":    {"STH"},
		"fig7left":  {"ACT4", "boroughs"},
		"fig7mid":   {"60m", "4m"},
		"fig7right": {"1T", "2T"},
		"fig8":      {"ACT4", "uniform"},
		"fig9":      {"nyc", "bos", "la", "sf"},
		"fig10":     {"SI1", "SI10", "RT", "PG"},
		"fig11":     {"GPU", "passes", "exact"},
		"batch":     {"per-point", "batch sorted", "taxi", "uniform", "cache-hit%"},
	}
	for _, exp := range All() {
		exp := exp
		t.Run(exp.ID, func(t *testing.T) {
			var buf bytes.Buffer
			if err := exp.Run(e, &buf); err != nil {
				t.Fatalf("%s failed: %v", exp.ID, err)
			}
			out := buf.String()
			if len(out) < 50 {
				t.Fatalf("%s output suspiciously short:\n%s", exp.ID, out)
			}
			for _, term := range expect[exp.ID] {
				if !strings.Contains(out, term) {
					t.Errorf("%s output missing %q:\n%s", exp.ID, term, out)
				}
			}
		})
	}
}

func TestRunOneHeader(t *testing.T) {
	e := tinyEnv()
	exp, _ := ByID("table3")
	var buf bytes.Buffer
	if err := RunOne(e, exp, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "=== table3") {
		t.Error("RunOne must print the experiment header")
	}
}
