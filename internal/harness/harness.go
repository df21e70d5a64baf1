// Package harness regenerates every table and figure of the paper's
// evaluation (Section 4). Each experiment builds its workload through a
// caching environment (super coverings are expensive and shared between
// experiments), runs the joins, and prints a text table mirroring the rows
// and series the paper reports.
//
// Absolute numbers depend on the host and on the synthetic datasets; the
// quantities that must reproduce are the *shapes*: orderings between
// structures, sensitivity (or insensitivity) to precision and polygon
// counts, scaling behaviour, and the effect of training (see DESIGN.md,
// "Expected shapes").
package harness

import (
	"fmt"
	"io"
	"runtime"
	"sort"

	"actjoin/internal/dataset"
)

// Config controls an experiment run.
type Config struct {
	Scale dataset.Scale
	// Points is the number of join (probe) points; 0 selects a per-scale
	// default.
	Points int
	// TrainPoints is the largest training-set size for the training
	// experiments; 0 selects a per-scale default.
	TrainPoints int
	// Threads is the sweep for the scalability experiment; nil selects
	// 1,2,4,... up to 2x GOMAXPROCS.
	Threads []int
	// MaxThreads is the thread count for the "all cores" comparisons
	// (Figure 11); 0 selects GOMAXPROCS.
	MaxThreads int
	// PrecisionLevelCap bounds refinement depth (used by tiny-scale tests
	// to keep cell counts trivial); 0 means no cap.
	PrecisionLevelCap int
	Seed              int64
}

func (c Config) withDefaults() Config {
	if c.Points == 0 {
		switch c.Scale {
		case dataset.ScaleTiny:
			c.Points = 50_000
		case dataset.ScalePaper:
			c.Points = 20_000_000
		default:
			c.Points = 2_000_000
		}
	}
	if c.TrainPoints == 0 {
		switch c.Scale {
		case dataset.ScaleTiny:
			c.TrainPoints = 20_000
		case dataset.ScalePaper:
			c.TrainPoints = 1_000_000
		default:
			c.TrainPoints = 200_000
		}
	}
	if len(c.Threads) == 0 {
		max := 2 * runtime.GOMAXPROCS(0)
		for t := 1; t <= max; t *= 2 {
			c.Threads = append(c.Threads, t)
		}
	}
	if c.MaxThreads == 0 {
		c.MaxThreads = runtime.GOMAXPROCS(0)
	}
	if c.Seed == 0 {
		c.Seed = 20200331 // EDBT 2020 opening day
	}
	return c
}

// Experiment is one reproducible table or figure.
type Experiment struct {
	ID    string
	Title string
	Run   func(e *Env, w io.Writer) error
}

var registry = []Experiment{
	{"table1", "Table 1: super covering metrics per dataset and precision", (*Env).Table1},
	{"table2", "Table 2: index structure size and build time (4m precision)", (*Env).Table2},
	{"fig7left", "Figure 7 (left): single-threaded approximate throughput per structure", (*Env).Fig7Left},
	{"fig7mid", "Figure 7 (middle): throughput vs precision (neighborhoods)", (*Env).Fig7Middle},
	{"fig7right", "Figure 7 (right): multi-threaded speedup (neighborhoods, 4m)", (*Env).Fig7Right},
	{"table3", "Table 3: lookup speedups, coarse over fine polygon datasets", (*Env).Table3},
	{"table4", "Table 4: ACT4 tree traversal depth distribution", (*Env).Table4},
	{"table5", "Table 5: structural probe counters per point (neighborhoods, 4m)", (*Env).Table5},
	{"fig8", "Figure 8: single-threaded approximate throughput, uniform points", (*Env).Fig8},
	{"fig9", "Figure 9: Twitter city datasets, throughput vs precision", (*Env).Fig9},
	{"fig10", "Figure 10: accurate join vs S2ShapeIndex and R-tree", (*Env).Fig10},
	{"table6", "Table 6: speedup from training the index", (*Env).Table6},
	{"table7", "Table 7: solely-true-hit rate before/after training", (*Env).Table7},
	{"fig11", "Figure 11: comparison with the (simulated) GPU raster joins", (*Env).Fig11},
	{"batch", "Batch engine: per-point vs batch probing, sorted vs unsorted", (*Env).Batch},
	{"snapshot", "Snapshot API: publish latency and join throughput under a live writer", (*Env).Snapshot},
	{"shard", "Sharded engine: composed join throughput and cross-shard parallel publish rate, by shard count", (*Env).Shard},
}

// All returns every experiment in paper order.
func All() []Experiment { return append([]Experiment(nil), registry...) }

// IDs returns the sorted experiment identifiers.
func IDs() []string {
	ids := make([]string, len(registry))
	for i, e := range registry {
		ids[i] = e.ID
	}
	sort.Strings(ids)
	return ids
}

// ByID looks an experiment up.
func ByID(id string) (Experiment, bool) {
	for _, e := range registry {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// RunAll executes every experiment against a shared environment.
func RunAll(cfg Config, w io.Writer) error {
	env := NewEnv(cfg)
	for _, e := range registry {
		if err := RunOne(env, e, w); err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
	}
	return nil
}

// RunOne executes a single experiment with a header.
func RunOne(env *Env, e Experiment, w io.Writer) error {
	fmt.Fprintf(w, "\n=== %s — %s\n", e.ID, e.Title)
	fmt.Fprintf(w, "    scale=%s points=%d threads<=%d\n\n",
		env.cfg.Scale, env.cfg.Points, env.cfg.MaxThreads)
	return e.Run(env, w)
}
