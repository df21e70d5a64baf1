package main

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// allocbound gates the allocation budget of the hot path. Every
// //act:hotpath function must stay heap-allocation free, checked three
// ways:
//
//   - the compiler's own escape analysis: allocbound runs
//     `go build -gcflags=-m=2` over the packages that contain annotated
//     functions, parses the escape diagnostics ("x escapes to heap",
//     "moved to heap: x" — escaping closure captures and interface boxes
//     surface as the same messages), and reports every site that falls
//     inside an annotated function's body;
//   - two syntactic container-growth rules for what that transcript cannot
//     see, because the growth happens inside the runtime: map literals and
//     make(map) (a map allocates buckets as it grows even when the map
//     itself stays on the stack), and append into a local slice declared
//     without capacity. A line flagged by these rules is not reported
//     again from the transcript;
//   - a dynamic cross-check: each annotated function must be covered by a
//     testing.AllocsPerRun case, declared by an //act:alloc-harness <name>
//     marker in a _test.go file of the same package (run
//     `actvet -allocharness` for skeletons of the missing cases). CI runs
//     those harnesses, so a regression has to get past the compiler
//     transcript and the runtime allocation counter.
//
// A site is suppressed by an //act:allow-alloc <reason> comment on the
// same line or the line above.
func allocbound(l *loader, cg *callGraph, ann *annotations) ([]diagnostic, error) {
	var diags []diagnostic
	report := func(pos token.Position, format string, args ...any) {
		diags = append(diags, diagnostic{pos: pos, analyzer: "allocbound", msg: fmt.Sprintf(format, args...)})
	}

	targets := allocTargets(l, cg, ann)
	if len(targets) == 0 {
		return nil, nil
	}

	// One compiler run over every package holding an annotated function.
	dirSet := map[string]bool{}
	for _, t := range targets {
		dirSet[t.dir] = true
	}
	var dirs []string
	for d := range dirSet {
		rel, err := filepath.Rel(l.modRoot, d)
		if err != nil {
			return nil, err
		}
		dirs = append(dirs, "./"+filepath.ToSlash(rel))
	}
	sort.Strings(dirs)
	escapes, err := escapeSites(l.modRoot, dirs)
	if err != nil {
		return nil, err
	}

	var sites []escapeSite
	grown := map[string]bool{} // file:line of every growth-rule site
	for _, t := range targets {
		for _, s := range growthSites(l, t.decl) {
			grown[fmt.Sprintf("%s:%d", s.file, s.line)] = true
			sites = append(sites, s)
		}
	}
	for _, e := range escapes {
		if !grown[fmt.Sprintf("%s:%d", e.file, e.line)] {
			sites = append(sites, e)
		}
	}
	for _, e := range sites {
		t := findTarget(targets, e.file, e.line)
		if t == nil {
			continue
		}
		if _, ok := suppressed(ann, e.file, e.line); ok {
			continue
		}
		report(token.Position{Filename: e.file, Line: e.line, Column: e.col},
			"heap allocation in //act:hotpath function %s: %s (suppress with //act:allow-alloc <reason>)",
			t.name, e.msg)
	}

	// Dynamic cross-check coverage: every target needs a harness case.
	covered, err := harnessMarkers(targets)
	if err != nil {
		return nil, err
	}
	for _, t := range targets {
		if covered[t.dir][t.name] {
			continue
		}
		report(l.position(t.obj.Pos()),
			"//act:hotpath function %s has no AllocsPerRun harness — add an //act:alloc-harness %s case to the package's TestNoAllocHarness (see `actvet -allocharness`)",
			t.name, t.name)
	}
	return diags, nil
}

// growthSites applies the container-growth rules to one annotated
// function: map literals, make(map), and append into a local slice
// declared without capacity. Appends into parameters, fields or slices
// made with a length or capacity are the amortized-reuse idiom and pass.
func growthSites(l *loader, fd *ast.FuncDecl) []escapeSite {
	noCap := map[types.Object]bool{}
	markIfEmpty := func(name *ast.Ident, val ast.Expr) {
		obj := l.info.Defs[name]
		if obj == nil {
			return
		}
		if _, ok := obj.Type().Underlying().(*types.Slice); !ok {
			return
		}
		if lit, ok := unparen(val).(*ast.CompositeLit); val == nil || ok && len(lit.Elts) == 0 {
			noCap[obj] = true // var s []T, s := []T{}
		}
	}
	var sites []escapeSite
	site := func(n ast.Node, msg string) {
		pos := l.position(n.Pos())
		sites = append(sites, escapeSite{file: pos.Filename, line: pos.Line, col: pos.Column, msg: msg})
	}
	isMap := func(e ast.Expr) bool {
		t := l.typeOf(e)
		if t == nil {
			return false
		}
		_, ok := t.Underlying().(*types.Map)
		return ok
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ValueSpec:
			for i, name := range n.Names {
				var val ast.Expr
				if i < len(n.Values) {
					val = n.Values[i]
				}
				markIfEmpty(name, val)
			}
		case *ast.AssignStmt:
			if n.Tok == token.DEFINE && len(n.Lhs) == len(n.Rhs) {
				for i, lhs := range n.Lhs {
					if id, ok := lhs.(*ast.Ident); ok {
						markIfEmpty(id, n.Rhs[i])
					}
				}
			}
		case *ast.CompositeLit:
			if isMap(n) {
				site(n, "map literal allocates on every call")
			}
		case *ast.CallExpr:
			id, ok := unparen(n.Fun).(*ast.Ident)
			if !ok || len(n.Args) == 0 {
				break
			}
			if id.Name == "make" && isMap(n.Args[0]) {
				site(n, "make(map) allocates on every call")
			}
			if arg, ok := unparen(n.Args[0]).(*ast.Ident); ok && id.Name == "append" && noCap[l.objOf(arg)] {
				site(n, fmt.Sprintf("append to %s, declared without preallocated capacity", arg.Name))
			}
		}
		return true
	})
	return sites
}

// allocTarget is one annotated function with its body's line span.
type allocTarget struct {
	obj        types.Object
	decl       *ast.FuncDecl
	name       string // Func or Recv.Method
	dir        string
	file       string
	start, end int
}

// allocTargets collects every //act:hotpath function with a body.
func allocTargets(l *loader, cg *callGraph, ann *annotations) []*allocTarget {
	var targets []*allocTarget
	for obj, ctx := range cg.decls {
		if !ann.hotpath[obj] {
			continue
		}
		start := l.position(ctx.decl.Pos())
		end := l.position(ctx.decl.End())
		targets = append(targets, &allocTarget{
			obj:   obj,
			decl:  ctx.decl,
			name:  targetName(ctx.decl),
			dir:   ctx.pkg.dir,
			file:  start.Filename,
			start: start.Line,
			end:   end.Line,
		})
	}
	sort.Slice(targets, func(i, j int) bool {
		if targets[i].file != targets[j].file {
			return targets[i].file < targets[j].file
		}
		return targets[i].start < targets[j].start
	})
	return targets
}

// targetName renders a function's harness name: Func, or Recv.Method with
// any pointer stripped.
func targetName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	t := fd.Recv.List[0].Type
	for {
		switch rt := t.(type) {
		case *ast.StarExpr:
			t = rt.X
		case *ast.IndexExpr:
			t = rt.X
		case *ast.Ident:
			return rt.Name + "." + fd.Name.Name
		default:
			return fd.Name.Name
		}
	}
}

func findTarget(targets []*allocTarget, file string, line int) *allocTarget {
	for _, t := range targets {
		if t.file == file && t.start <= line && line <= t.end {
			return t
		}
	}
	return nil
}

// suppressed reports whether an //act:allow-alloc comment covers the
// site: same line (trailing comment) or the line above.
func suppressed(ann *annotations, file string, line int) (string, bool) {
	if r, ok := ann.allowAlloc[fmt.Sprintf("%s:%d", file, line)]; ok {
		return r, true
	}
	if r, ok := ann.allowAlloc[fmt.Sprintf("%s:%d", file, line-1)]; ok {
		return r, true
	}
	return "", false
}

// escapeSite is one heap allocation the compiler reported.
type escapeSite struct {
	file string
	line int
	col  int
	msg  string
}

var escapeLineRE = regexp.MustCompile(`^(.+\.go):(\d+):(\d+): (.+?):?$`)

// escapeSites runs the compiler's escape analysis over the given package
// directories (relative to modRoot) and returns the allocation sites,
// deduplicated by position (-m=2 repeats a site with and without its
// flow explanation).
func escapeSites(modRoot string, dirs []string) ([]escapeSite, error) {
	args := append([]string{"build", "-gcflags=-m=2"}, dirs...)
	cmd := exec.Command("go", args...)
	cmd.Dir = modRoot
	out, err := cmd.CombinedOutput()
	if err != nil {
		return nil, fmt.Errorf("go %s: %v\n%s", strings.Join(args, " "), err, out)
	}
	var sites []escapeSite
	seen := map[string]bool{}
	for _, raw := range strings.Split(string(out), "\n") {
		if raw == "" || raw[0] == '#' || raw[0] == ' ' || raw[0] == '\t' {
			continue // package headers and flow-explanation lines
		}
		m := escapeLineRE.FindStringSubmatch(raw)
		if m == nil {
			continue
		}
		msg := m[4]
		if !strings.Contains(msg, "escapes to heap") && !strings.Contains(msg, "moved to heap") {
			continue
		}
		if strings.Contains(msg, "does not escape") {
			continue
		}
		file := m[1]
		if !filepath.IsAbs(file) {
			file = filepath.Join(modRoot, file)
		}
		line, _ := strconv.Atoi(m[2])
		col, _ := strconv.Atoi(m[3])
		key := fmt.Sprintf("%s:%d:%d", file, line, col)
		if seen[key] {
			continue
		}
		seen[key] = true
		sites = append(sites, escapeSite{file: file, line: line, col: col, msg: msg})
	}
	sort.Slice(sites, func(i, j int) bool {
		if sites[i].file != sites[j].file {
			return sites[i].file < sites[j].file
		}
		if sites[i].line != sites[j].line {
			return sites[i].line < sites[j].line
		}
		return sites[i].col < sites[j].col
	})
	return sites, nil
}

var harnessMarkerRE = regexp.MustCompile(`//act:alloc-harness +(\S+)`)

// harnessMarkers scans the _test.go files of every target package for
// //act:alloc-harness markers: dir -> covered function names.
func harnessMarkers(targets []*allocTarget) (map[string]map[string]bool, error) {
	covered := map[string]map[string]bool{}
	for _, t := range targets {
		if covered[t.dir] != nil {
			continue
		}
		covered[t.dir] = map[string]bool{}
		names, err := filepath.Glob(filepath.Join(t.dir, "*_test.go"))
		if err != nil {
			return nil, err
		}
		for _, name := range names {
			data, err := os.ReadFile(name)
			if err != nil {
				return nil, err
			}
			for _, m := range harnessMarkerRE.FindAllStringSubmatch(string(data), -1) {
				covered[t.dir][m[1]] = true
			}
		}
	}
	return covered, nil
}

// allocHarnessSkeletons prints a testing.AllocsPerRun skeleton for every
// annotated function that no //act:alloc-harness marker covers yet.
func allocHarnessSkeletons(l *loader, cg *callGraph, ann *annotations) (string, error) {
	targets := allocTargets(l, cg, ann)
	covered, err := harnessMarkers(targets)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	for _, t := range targets {
		if covered[t.dir][t.name] {
			continue
		}
		rel, err := filepath.Rel(l.modRoot, t.dir)
		if err != nil {
			rel = t.dir
		}
		fmt.Fprintf(&b, "// %s: add to TestNoAllocHarness in %s\n", t.name, rel)
		fmt.Fprintf(&b, "//act:alloc-harness %s\n", t.name)
		fmt.Fprintf(&b, "testAllocs(t, %q, func() {\n\t// call %s against pre-built inputs\n})\n\n", t.name, t.name)
	}
	return b.String(), nil
}
