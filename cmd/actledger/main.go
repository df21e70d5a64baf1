// Command actledger is the performance ledger of the actjoin engine: it runs
// named workloads through the public API, checks every answer, and reports
// end-to-end metrics (untraced runs) or per-layer metrics (traced runs).
//
// Usage, from the repository root:
//
//	sh cmd/actledger/run.sh [flags]            build in .bench_build and run
//	sh cmd/actledger/run.sh compare A.json [B.json]
//
// With -workload naming one workload and one run, the run happens in this
// process and the last line of standard output is a JSON object with the
// keys correct, attempted, failed and metrics. Otherwise every run is a
// child process of this one, and -out collects them. See README.md for the
// workloads and metrics.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runRecord is one run of one workload, as -out stores it.
type runRecord struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Set       int               `json:"set"`
	Trace     bool              `json:"trace"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// ledgerFile is what -out writes: the host, the code and every run.
type ledgerFile struct {
	Host    hostInfo    `json:"host"`
	Commit  string      `json:"commit"`
	Seed    int64       `json:"seed"`
	Seconds float64     `json:"seconds"`
	Runs    []runRecord `json:"runs"`
}

type hostInfo struct {
	CPU   string `json:"cpu"`
	NProc int    `json:"nproc"`
	Go    string `json:"go"`
	OS    string `json:"os"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout))
	}
	os.Exit(ledgerMain(os.Args[1:]))
}

func ledgerMain(args []string) int {
	fs := flag.NewFlagSet("actledger", flag.ContinueOnError)
	workload := fs.String("workload", "all", "workload to run, or all")
	seed := fs.Int64("seed", 1, "seed of the first run; run k uses seed+k")
	seconds := fs.Float64("seconds", 20, "measured seconds per run, after a warm-up")
	trace := fs.Int("trace", 0, "1 runs traced and reports per-layer metrics, 0 end-to-end ones")
	spans := fs.String("spans", "", "with -trace 1, write the spans of each run as JSON to this file")
	runs := fs.Int("runs", 1, "runs per workload and set, each with the next seed")
	sets := fs.Int("sets", 1, "sets of runs, each repeating the same seeds")
	out := fs.String("out", "", "write every run, with host and commit, as JSON to this file")
	smoke := fs.Bool("smoke", false, "small inputs and a short warm-up, for tests")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	names := []string{*workload}
	if *workload == "all" {
		names = nil
		for _, w := range workloads {
			names = append(names, w.name)
		}
	}
	for _, n := range names {
		if _, ok := findWorkload(n); !ok {
			fmt.Fprintf(os.Stderr, "actledger: unknown workload %q\n", n)
			return 2
		}
	}
	if *trace != 0 && *trace != 1 || *runs < 1 || *sets < 1 || *seconds <= 0 || fs.NArg() > 0 {
		fs.Usage()
		return 2
	}
	cfg := config{seed: *seed, seconds: *seconds, trace: *trace == 1, smoke: *smoke}
	if len(names) == 1 && *runs == 1 && *sets == 1 {
		cfg.workload = names[0]
		return runSingle(cfg, *spans, *out)
	}
	return runChildren(cfg, names, *runs, *sets, *spans, *out)
}

// runSingle runs one workload in this process, prints its metrics and, last,
// the JSON result line. It exits 1 when a check failed.
func runSingle(cfg config, spansPath, outPath string) int {
	rec, spans, failures := runOnce(cfg)
	for _, f := range failures {
		fmt.Fprintf(os.Stderr, "actledger: %s: %s\n", cfg.workload, f)
	}
	printMetrics(rec)
	if spansPath != "" {
		if err := writeJSON(spansPath, spans); err != nil {
			fmt.Fprintln(os.Stderr, "actledger:", err)
			return 1
		}
	}
	if outPath != "" {
		if err := writeJSON(outPath, newLedger(cfg, []runRecord{rec})); err != nil {
			fmt.Fprintln(os.Stderr, "actledger:", err)
			return 1
		}
	}
	line := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{rec.Correct, rec.Attempted, rec.Failed, map[string]metric{}}
	for name, m := range rec.Metrics {
		if d, ok := lookup(name); ok && d.gated && d.name == name {
			line.Metrics[name] = m
		}
	}
	b, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(os.Stderr, "actledger:", err)
		return 1
	}
	fmt.Println(string(b))
	if !rec.Correct {
		return 1
	}
	return 0
}

// runOnce runs one workload and returns its record (untraced runs keep the
// end-to-end metrics, traced runs the per-layer ones), its spans and its
// first failure messages.
func runOnce(cfg config) (runRecord, []span, []string) {
	r := newRunner(cfg)
	w, _ := findWorkload(cfg.workload)
	w.run(r)
	rec := runRecord{
		Workload: cfg.workload, Seed: cfg.seed, Trace: cfg.trace,
		Correct: r.tally.failed == 0, Attempted: r.tally.attempted, Failed: r.tally.failed,
		Metrics: map[string]metric{},
	}
	r.metrics["error_rate"] = float64(r.tally.failed) / float64(max(r.tally.attempted, 1))
	for name, v := range r.metrics {
		d, ok := lookup(name)
		if ok && (d.layer == cfg.trace || name == "error_rate") {
			rec.Metrics[name] = metric{Value: v, Unit: d.unit}
		}
	}
	var spans []span
	if r.tr != nil {
		spans = r.tr.spans
	}
	return rec, spans, r.tally.failures
}

// printMetrics prints "workload metric value unit" lines in catalog order,
// the prefixed variants after their unprefixed metric.
func printMetrics(rec runRecord) {
	for _, d := range catalog {
		for _, prefix := range prefixes {
			if m, ok := rec.Metrics[prefix+d.name]; ok {
				fmt.Printf("%s %s %s %s\n", rec.Workload, prefix+d.name, strconv.FormatFloat(m.Value, 'g', -1, 64), m.Unit)
			}
		}
	}
}

// runChildren runs every (set, workload, seed) as a child process of this
// binary, passing its output through, and collects the records for -out.
// Sets are interleaved: each seed runs once per set, back to back, and the
// set that goes first rotates from seed to seed, so that drift in the host's
// speed reaches every set alike. An interrupt or termination kills the
// running child and stops.
func runChildren(cfg config, names []string, runs, sets int, spansPath, outPath string) int {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "actledger:", err)
		return 1
	}
	dir := "."
	if outPath != "" {
		dir = filepath.Dir(outPath)
	}
	tmp, err := os.MkdirTemp(dir, ".actledger-runs-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "actledger:", err)
		return 1
	}
	defer os.RemoveAll(tmp)
	var recs []runRecord
	status := 0
	for _, name := range names {
		for k := 0; k < runs; k++ {
			for i := 0; i < sets; i++ {
				set := (i + k) % sets
				seed := cfg.seed + int64(k)
				recPath := filepath.Join(tmp, "run.json")
				args := []string{"-workload", name, "-seed", strconv.FormatInt(seed, 10),
					"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64), "-out", recPath}
				if cfg.trace {
					args = append(args, "-trace", "1")
				}
				if cfg.smoke {
					args = append(args, "-smoke")
				}
				if spansPath != "" {
					base := strings.TrimSuffix(spansPath, ".json")
					args = append(args, "-spans", fmt.Sprintf("%s-%s-%d-set%d.json", base, name, seed, set))
				}
				fmt.Printf("# set %d workload %s seed %d\n", set, name, seed)
				cmd := exec.CommandContext(ctx, exe, args...)
				cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
				if err := cmd.Run(); err != nil {
					fmt.Fprintf(os.Stderr, "actledger: %s seed %d: %v\n", name, seed, err)
					status = 1
				}
				if ctx.Err() != nil {
					return 1
				}
				var lf ledgerFile
				if err := readJSON(recPath, &lf); err != nil {
					fmt.Fprintf(os.Stderr, "actledger: %s seed %d left no record: %v\n", name, seed, err)
					status = 1
					continue
				}
				if err := os.Remove(recPath); err != nil {
					fmt.Fprintln(os.Stderr, "actledger:", err)
					return 1
				}
				for _, rec := range lf.Runs {
					rec.Set = set
					recs = append(recs, rec)
				}
			}
		}
	}
	if outPath != "" {
		if err := writeJSON(outPath, newLedger(cfg, recs)); err != nil {
			fmt.Fprintln(os.Stderr, "actledger:", err)
			return 1
		}
	}
	return status
}

func newLedger(cfg config, recs []runRecord) ledgerFile {
	return ledgerFile{
		Host:    hostInfo{CPU: cpuModel(), NProc: runtime.NumCPU(), Go: runtime.Version(), OS: runtime.GOOS + "/" + runtime.GOARCH},
		Commit:  commit(),
		Seed:    cfg.seed,
		Seconds: cfg.seconds,
		Runs:    recs,
	}
}

// cpuModel reads the CPU model name on Linux, "unknown" elsewhere.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit returns the VCS revision the binary was built from, as the go
// command stamps it, with "+dirty" for uncommitted changes.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", ""
	for _, s := range info.Settings {
		switch {
		case s.Key == "vcs.revision":
			rev = s.Value
		case s.Key == "vcs.modified" && s.Value == "true":
			dirty = "+dirty"
		}
	}
	return rev + dirty
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return nil
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("reading %s: %w", path, err)
	}
	return nil
}
