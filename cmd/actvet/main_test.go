package main

import (
	"go/ast"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// Fixture packages live under testdata/src/<analyzer>/{bad,good}. Each is
// loaded as its own module root and run through the analyzer named by its
// parent directory (plus annotation validation, which always runs). The
// lockcheck, hotpath and publishcheck directories keep the cases of
// analyzers that were folded into others and run through the analyzers
// that now hold those rules (see absorbedBy);
// expectations are "// want" comments carrying a backquoted regexp on the
// violating line, in the style of go/analysis golden tests. A "good"
// package simply carries no want comments, so any diagnostic fails the
// test; a "bad" package must carry at least one, so a fixture cannot pass
// vacuously.
func TestFixtures(t *testing.T) {
	dirs, err := filepath.Glob(filepath.Join("testdata", "src", "*", "*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(dirs) == 0 {
		t.Fatal("no fixture packages under testdata/src")
	}
	for _, dir := range dirs {
		name := filepath.ToSlash(strings.TrimPrefix(dir, filepath.Join("testdata", "src")+string(filepath.Separator)))
		t.Run(name, func(t *testing.T) { runFixture(t, dir) })
	}
}

var wantRE = regexp.MustCompile("// want `([^`]+)`")

// absorbedBy maps the fixture directory of a retired analyzer to the
// analyzers that now report its rules.
var absorbedBy = map[string][]string{
	"lockcheck":    {"lockorder"},
	"hotpath":      {"allocbound"},
	"publishcheck": {"atomcheck", "lockorder"},
}

func runFixture(t *testing.T, dir string) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		t.Fatal(err)
	}
	l := newLoader(abs, "fixture")
	p, err := l.loadDir(abs)
	if err != nil {
		t.Fatalf("loading %s: %v", dir, err)
	}
	if p == nil {
		t.Fatalf("no Go package in %s", dir)
	}

	ann, diags := collectAnnotations(l)
	cg, res := buildCallGraph(l, ann), newResolver(l, ann)
	analyzers := []string{filepath.Base(filepath.Dir(dir))}
	if to, ok := absorbedBy[analyzers[0]]; ok {
		analyzers = to
	}
	for _, analyzer := range analyzers {
		switch analyzer {
		case "frozencheck":
			diags = append(diags, frozencheck(l, p, ann)...)
		case "doccheck":
			diags = append(diags, doccheck(l, p, ann)...)
		case "gocheck":
			diags = append(diags, gocheck(l, p, ann)...)
		case "errcheck":
			diags = append(diags, errcheck(l, p, ann)...)
		case "atomcheck":
			diags = append(diags, atomcheck(l, cg, ann, res)...)
		case "seqcheck":
			diags = append(diags, seqcheck(l, cg, ann, res)...)
		case "faultcov":
			diags = append(diags, faultcov(l, cg, ann)...)
		case "lockorder":
			diags = append(diags, lockorder(l, cg, ann, res)...)
		case "snapcheck":
			diags = append(diags, snapcheck(l, cg, ann)...)
		case "allocbound":
			ab, err := allocbound(l, cg, ann)
			if err != nil {
				t.Fatalf("allocbound over %s: %v", dir, err)
			}
			diags = append(diags, ab...)
		default:
			t.Fatalf("fixture directory %s names no analyzer", dir)
		}
	}

	type want struct {
		line    int
		re      *regexp.Regexp
		matched bool
	}
	// want comments are collected from every local package of the fixture
	// module, not just the root: faultcov fixtures anchor diagnostics on
	// their fault subpackage's declarations.
	var files []*ast.File
	for _, lp := range l.pkgs {
		if lp.local {
			files = append(files, lp.files...)
		}
	}
	var wants []*want
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				re, err := regexp.Compile(m[1])
				if err != nil {
					t.Fatalf("%s: bad want pattern %q: %v", l.position(c.Pos()), m[1], err)
				}
				wants = append(wants, &want{line: l.position(c.Pos()).Line, re: re})
			}
		}
	}

	if filepath.Base(dir) == "bad" && len(wants) == 0 {
		t.Errorf("%s: a bad fixture must carry at least one // want expectation", dir)
	}

	for _, d := range diags {
		matched := false
		for _, w := range wants {
			if w.line == d.pos.Line && w.re.MatchString(d.msg) {
				w.matched = true
				matched = true
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s line %d: no diagnostic matching %q", dir, w.line, w.re)
		}
	}
}
