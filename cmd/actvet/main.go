// Command actvet is the repo-specific static-analysis suite enforcing the
// snapshot/publish concurrency contract at build time. The engine's reader
// path is lock-free only because a set of invariants holds everywhere:
// writer state is touched only under the index mutex, frozen snapshot state
// is never written through, hot probe loops stay allocation-free, and the
// published-snapshot pointer is swapped only by the publish machinery. Those
// rules are declared in the source as machine-readable //act: annotations
// (see docs/ANNOTATIONS.md), and actvet checks them with ten analyzers.
//
// Per-function checks:
//
//   - frozencheck: values originating from //act:frozen functions or fields
//     (frozen snapshot state, shared between publishes) must never be
//     written through: no element assignment, no append, no copy-into, no
//     passing to an //act:mutates function. //act:freezer exempts the freeze
//     machinery itself.
//   - doccheck: every package has a package comment and every exported
//     symbol a doc comment starting with its name.
//   - gocheck: every go statement launches a function that installs a
//     top-level recover (panic containment at the goroutine boundary —
//     nothing above a goroutine on the stack can recover for it) or carries
//     an //act:norecover <reason> site annotation.
//   - errcheck: in non-main packages, a call whose final result is an error
//     must not be discarded — as a statement, behind defer or go, or
//     assigned to _ — unless the line carries //act:ignore-err <reason>.
//
// Whole-program checks, over a go/types-resolved call graph of the module:
//
//   - lockorder: every mutex field declares a module-unique //act:lock
//     class, and //act:guarded fields and //act:requires functions are
//     reached only with their class held (goroutines inherit no locks;
//     //act:exclusive exempts constructors of fresh values); double
//     acquisition (directly or through calls), lock-order cycles, prose
//     lock comments without a directive, and exported methods returning
//     interior pointers into guarded state are reported.
//   - snapcheck: two fresh snapshots in one batch (torn view), *Snapshot
//     stored into a field without //act:pinned, and goroutines capturing
//     storage aliased from guarded fields.
//   - allocbound: //act:hotpath functions are verified allocation-free
//     against `go build -gcflags=-m=2` escape analysis plus two
//     container-growth rules the transcript cannot see (map allocation,
//     append to a capacity-less local slice), with //act:allow-alloc
//     <reason> site suppressions, and must each be covered by a
//     testing.AllocsPerRun case declared with an //act:alloc-harness
//     marker.
//   - atomcheck: every sync/atomic-typed struct field carries //act:atomic;
//     //act:atomic fields are never touched outside sync/atomic, never
//     copied by value, and load-then-store read-modify-write sequences run
//     under a held lock class or a CompareAndSwap loop; Store/Swap on the
//     //act:published snapshot pointer appear only in //act:publisher
//     functions.
//   - seqcheck: an //act:seqlock <class> generation field follows the
//     seqlock protocol — writers bump odd/even in paired Add(1)s (the
//     restore deferred, so a panic exit cannot strand readers on an odd
//     generation) under the class held exclusively; readers use the
//     even-stable re-check pattern or hold the class.
//   - faultcov: //act:seam functions contain a fault.Hit/MustHit point, and
//     the fault package's Point constants, its Points() registry, the
//     docs/ANNOTATIONS.md injection-point table and the _test.go rules that
//     arm them all stay in agreement.
//
// Usage:
//
//	actvet [-allocharness] [-json] [packages]
//
// Packages are directories or "dir/..." patterns relative to the current
// module; with no arguments it vets "./...". -allocharness prints
// AllocsPerRun skeletons for annotated functions that lack a harness case
// instead of vetting; -json reports diagnostics as a JSON array of
// {file,line,col,analyzer,message} objects (file relative to the module
// root) for machine consumption. The analyzers use only stdlib packages
// (go/parser, go/ast, go/types); imports — including the standard library —
// are type-checked from source, so the tool runs in the build image with no
// installed toolchain artifacts (allocbound additionally shells out to
// `go build` for the compiler's escape transcript). Exit status is 1 when
// any diagnostic is reported, 2 on load or usage errors.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

func main() {
	harness := flag.Bool("allocharness", false, "print AllocsPerRun skeletons for uncovered //act:hotpath functions")
	jsonOut := flag.Bool("json", false, "report diagnostics as a JSON array of {file,line,col,analyzer,message} objects")
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		args = []string{"./..."}
	}
	if *harness {
		l, _, err := loadPatterns(".", args)
		if err != nil {
			fmt.Fprintf(os.Stderr, "actvet: %v\n", err)
			os.Exit(2)
		}
		ann, _ := collectAnnotations(l)
		out, err := allocHarnessSkeletons(l, buildCallGraph(l, ann), ann)
		if err != nil {
			fmt.Fprintf(os.Stderr, "actvet: %v\n", err)
			os.Exit(2)
		}
		fmt.Print(out)
		return
	}
	diags, err := vet(".", args)
	if err != nil {
		fmt.Fprintf(os.Stderr, "actvet: %v\n", err)
		os.Exit(2)
	}
	if *jsonOut {
		modRoot, _, err := findModule(".")
		if err != nil {
			fmt.Fprintf(os.Stderr, "actvet: %v\n", err)
			os.Exit(2)
		}
		if err := json.NewEncoder(os.Stdout).Encode(jsonDiags(diags, modRoot)); err != nil {
			fmt.Fprintf(os.Stderr, "actvet: %v\n", err)
			os.Exit(2)
		}
	} else {
		for _, d := range diags {
			fmt.Println(d)
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "actvet: %d violations\n", len(diags))
		os.Exit(1)
	}
}

// jsonDiag is the machine-readable form of one diagnostic, with the file
// path relative to the module root so CI can map it onto the PR diff.
type jsonDiag struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

func jsonDiags(diags []diagnostic, modRoot string) []jsonDiag {
	out := make([]jsonDiag, 0, len(diags))
	for _, d := range diags {
		file := d.pos.Filename
		if rel, err := filepath.Rel(modRoot, file); err == nil && !strings.HasPrefix(rel, "..") {
			file = filepath.ToSlash(rel)
		}
		out = append(out, jsonDiag{File: file, Line: d.pos.Line, Col: d.pos.Column, Analyzer: d.analyzer, Message: d.msg})
	}
	return out
}

// loadPatterns loads the packages matched by patterns into a fresh loader.
func loadPatterns(cwd string, patterns []string) (*loader, []*pkgData, error) {
	modRoot, modPath, err := findModule(cwd)
	if err != nil {
		return nil, nil, err
	}
	dirs, err := expandPatterns(cwd, patterns)
	if err != nil {
		return nil, nil, err
	}
	l := newLoader(modRoot, modPath)
	var pkgs []*pkgData
	for _, dir := range dirs {
		p, err := l.loadDir(dir)
		if err != nil {
			return nil, nil, err
		}
		if p != nil {
			pkgs = append(pkgs, p)
		}
	}
	if len(pkgs) == 0 {
		return nil, nil, fmt.Errorf("no Go packages in %s", strings.Join(patterns, " "))
	}
	return l, pkgs, nil
}

// vet loads and analyzes the packages matched by patterns, returning the
// diagnostics sorted by position. The per-function analyzers run on the
// matched packages; the whole-program analyzers run once over every
// module-local package the load pulled in.
func vet(cwd string, patterns []string) ([]diagnostic, error) {
	l, pkgs, err := loadPatterns(cwd, patterns)
	if err != nil {
		return nil, err
	}

	ann, diags := collectAnnotations(l)
	cg := buildCallGraph(l, ann)
	res := newResolver(l, ann)
	for _, p := range pkgs {
		diags = append(diags, frozencheck(l, p, ann)...)
		diags = append(diags, doccheck(l, p, ann)...)
		diags = append(diags, gocheck(l, p, ann)...)
		diags = append(diags, errcheck(l, p, ann)...)
	}
	diags = append(diags, lockorder(l, cg, ann, res)...)
	diags = append(diags, snapcheck(l, cg, ann)...)
	diags = append(diags, atomcheck(l, cg, ann, res)...)
	diags = append(diags, seqcheck(l, cg, ann, res)...)
	diags = append(diags, faultcov(l, cg, ann)...)
	ab, err := allocbound(l, cg, ann)
	if err != nil {
		return nil, err
	}
	diags = append(diags, ab...)

	sort.Slice(diags, func(i, j int) bool { return diags[i].String() < diags[j].String() })
	return dedup(diags), nil
}

// dedup drops adjacent duplicates from a sorted slice (the same annotation
// error can surface once per vetted package that loads the file).
func dedup(s []diagnostic) []diagnostic {
	out := s[:0]
	for i, v := range s {
		if i == 0 || v.String() != s[i-1].String() {
			out = append(out, v)
		}
	}
	return out
}

// findModule locates the enclosing go.mod and returns the module root
// directory and module path.
func findModule(dir string) (root, path string, err error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(abs, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module "); ok {
					return abs, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("%s: no module line", filepath.Join(abs, "go.mod"))
		}
		parent := filepath.Dir(abs)
		if parent == abs {
			return "", "", fmt.Errorf("no go.mod found above %s", dir)
		}
		abs = parent
	}
}

// expandPatterns resolves the command-line package patterns into directories:
// a plain path names one directory, a path ending in /... names every
// package directory under it (testdata, hidden and underscore-prefixed
// directories are skipped, as the go tool does).
func expandPatterns(cwd string, patterns []string) ([]string, error) {
	var dirs []string
	seen := map[string]bool{}
	add := func(d string) {
		if !seen[d] {
			seen[d] = true
			dirs = append(dirs, d)
		}
	}
	for _, pat := range patterns {
		root, recursive := strings.CutSuffix(pat, "...")
		root = strings.TrimSuffix(root, "/")
		if root == "" {
			root = "."
		}
		root = filepath.Join(cwd, root)
		if !recursive {
			add(root)
			continue
		}
		err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata" || name == "vendor") {
				return filepath.SkipDir
			}
			if hasGoFiles(path) {
				add(path)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return dirs, nil
}

// hasGoFiles reports whether the directory contains at least one non-test
// .go file.
func hasGoFiles(dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		name := e.Name()
		if !e.IsDir() && strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") {
			return true
		}
	}
	return false
}
