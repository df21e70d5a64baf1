// Command actbench regenerates the tables and figures of "Adaptive
// Main-Memory Indexing for High-Performance Point-Polygon Joins" (EDBT
// 2020) against the synthetic datasets of this reproduction.
//
// Beyond the paper's tables and figures, `-exp batch` measures the batch
// probe pipeline behind the public CoversBatch/JoinCount API (per-point vs
// batch probing, sorted vs unsorted, with cache-hit rates), `-exp snapshot`
// measures the snapshot API under a live writer, and `-exp shard` measures
// composed join throughput and cross-shard publish rate by shard count. The
// publish-path, removal-path and compaction-path comparisons are Go
// benchmarks in the root package (BenchmarkSnapshotPublishFullRebuildAddRemove,
// BenchmarkSnapshotRemovePublishWalk, BenchmarkPublishTailLatencyInlineCompaction).
//
// Usage:
//
//	actbench -list
//	actbench -exp table1
//	actbench -exp fig7left,fig7mid -scale small -points 2000000
//	actbench -exp batch -scale small
//	actbench -exp all -scale small | tee results.txt
//
// Scales: tiny (seconds, for smoke tests), small (minutes, the default),
// paper (matches the paper's polygon counts; needs a large machine).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"actjoin/internal/dataset"
	"actjoin/internal/harness"
)

func main() {
	var (
		expFlag    = flag.String("exp", "all", "experiment id(s), comma separated, or 'all'")
		scaleFlag  = flag.String("scale", "small", "dataset scale: tiny, small or paper")
		pointsFlag = flag.Int("points", 0, "probe points (0 = per-scale default)")
		trainFlag  = flag.Int("train", 0, "max training points (0 = per-scale default)")
		threadsMax = flag.Int("maxthreads", 0, "threads for parallel experiments (0 = GOMAXPROCS)")
		seedFlag   = flag.Int64("seed", 0, "dataset seed (0 = default)")
		listFlag   = flag.Bool("list", false, "list experiments and exit")
	)
	flag.Parse()

	if *listFlag {
		for _, e := range harness.All() {
			fmt.Printf("%-10s %s\n", e.ID, e.Title)
		}
		return
	}

	scale, ok := dataset.ParseScale(*scaleFlag)
	if !ok {
		fmt.Fprintf(os.Stderr, "actbench: unknown scale %q (want tiny, small or paper)\n", *scaleFlag)
		os.Exit(2)
	}
	cfg := harness.Config{
		Scale:       scale,
		Points:      *pointsFlag,
		TrainPoints: *trainFlag,
		MaxThreads:  *threadsMax,
		Seed:        *seedFlag,
	}

	if *expFlag == "all" {
		if err := harness.RunAll(cfg, os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "actbench: %v\n", err)
			os.Exit(1)
		}
		return
	}

	env := harness.NewEnv(cfg)
	for _, id := range strings.Split(*expFlag, ",") {
		id = strings.TrimSpace(id)
		exp, ok := harness.ByID(id)
		if !ok {
			fmt.Fprintf(os.Stderr, "actbench: unknown experiment %q; -list shows ids\n", id)
			os.Exit(2)
		}
		if err := harness.RunOne(env, exp, os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "actbench: %s: %v\n", id, err)
			os.Exit(1)
		}
	}
}
