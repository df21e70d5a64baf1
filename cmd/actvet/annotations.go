package main

import (
	"fmt"
	"go/ast"
	"go/types"
	"strconv"
	"strings"
)

// The //act: annotation language. Annotations are directive comments (no
// space after the slashes) placed in the doc comment of a function or struct
// field, or as a field's trailing line comment:
//
//	//act:guarded <mu>        field: accessed only under the mutex <mu>
//	//act:requires <mu>       function: runs with <mu> already acquired
//	//act:exclusive           function: operates on a fresh, unshared value;
//	                          lockorder does not apply inside it
//	//act:frozen              function: its results are frozen (shared with
//	                          immutable snapshots, never written through)
//	                          field: permanently frozen once set
//	//act:freezer             function: the freeze/patch machinery itself;
//	                          frozencheck does not apply inside it
//	//act:mutates <n>         function: writes through its n-th argument
//	                          (0-based; receivers are not counted)
//	//act:hotpath             function: allocation-free; allocbound checks it
//	                          against the escape transcript, two container-
//	                          growth rules and an AllocsPerRun harness
//	//act:published           field: the atomically published snapshot pointer
//	//act:publisher           function: may Store/Swap a //act:published field
//	//act:lock <class>        field: declares a mutex with a module-unique
//	                          lock-order class name (lockorder's vocabulary)
//	//act:pinned              field: deliberately stores a *Snapshot for a
//	                          long-lived structure (snapcheck exemption)
//	//act:refresh             function: deliberately takes fresh snapshots
//	                          (snapcheck's torn-view rule does not charge it)
//	//act:allow-alloc <why>   site comment: the allocation on this (or the
//	                          next) line is accepted, with a reason
//	//act:norecover <why>     site comment: the go statement on this (or the
//	                          next) line deliberately launches a goroutine
//	                          with no recover guard, with a reason
//	//act:alloc-harness <fn>  test-file marker: an AllocsPerRun case covers fn
//	//act:atomic              field: accessed only through sync/atomic (either
//	                          a sync/atomic type or a plain word reached via
//	                          the atomic package functions); atomcheck's
//	                          discipline applies
//	//act:seqlock <class>     field: a seqlock generation word (atomic
//	                          unsigned integer); writers bump it odd/even in
//	                          paired Add(1)s under the named lock class held
//	                          exclusively, readers use the even-stable
//	                          re-check pattern or the class as a fallback
//	//act:seam                function: a declared fault-injection seam; its
//	                          body must contain a fault.Hit/MustHit point
//	//act:ignore-err <why>    site comment: the discarded error on this (or
//	                          the next) line is deliberate, with a reason
//
// The mutex name in guarded/requires is resolved to an //act:lock class
// (see resolver): the annotated struct's — or the method receiver's — own
// field first, then the module-wide class vocabulary, so two structs may
// both name their mutex field "mu" without the analyses conflating them.
type annotations struct {
	guarded      map[types.Object]string
	requires     map[types.Object][]string
	exclusive    map[types.Object]bool
	frozenFns    map[types.Object]bool
	frozenFields map[types.Object]bool
	freezer      map[types.Object]bool
	mutates      map[types.Object][]int
	hotpath      map[types.Object]bool
	published    map[types.Object]bool
	publisher    map[types.Object]bool
	locks        map[types.Object]string // mutex field -> lock-order class
	pinned       map[types.Object]bool
	refresh      map[types.Object]bool
	atomic       map[types.Object]bool   // fields under the atomics discipline
	seqlock      map[types.Object]string // seqlock generation field -> lock class
	seam         map[types.Object]bool   // declared fault-injection seams
	allowAlloc   map[string]string       // "file:line" of the comment -> reason
	norecover    map[string]string       // "file:line" of the comment -> reason
	ignoreErr    map[string]string       // "file:line" of the comment -> reason
}

func newAnnotations() *annotations {
	return &annotations{
		guarded:      map[types.Object]string{},
		requires:     map[types.Object][]string{},
		exclusive:    map[types.Object]bool{},
		frozenFns:    map[types.Object]bool{},
		frozenFields: map[types.Object]bool{},
		freezer:      map[types.Object]bool{},
		mutates:      map[types.Object][]int{},
		hotpath:      map[types.Object]bool{},
		published:    map[types.Object]bool{},
		publisher:    map[types.Object]bool{},
		locks:        map[types.Object]string{},
		pinned:       map[types.Object]bool{},
		refresh:      map[types.Object]bool{},
		atomic:       map[types.Object]bool{},
		seqlock:      map[types.Object]string{},
		seam:         map[types.Object]bool{},
		allowAlloc:   map[string]string{},
		norecover:    map[string]string{},
		ignoreErr:    map[string]string{},
	}
}

// directive is one parsed //act: comment.
type directive struct {
	name string
	args []string
	pos  ast.Node
}

// parseDirectives extracts //act: directives from a comment group. Directive
// comments are excluded from CommentGroup.Text, so the raw list is scanned.
func parseDirectives(groups ...*ast.CommentGroup) []directive {
	var out []directive
	for _, g := range groups {
		if g == nil {
			continue
		}
		for _, c := range g.List {
			rest, ok := strings.CutPrefix(c.Text, "//act:")
			if !ok {
				continue
			}
			fields := strings.Fields(rest)
			if len(fields) == 0 {
				out = append(out, directive{name: "", pos: c})
				continue
			}
			out = append(out, directive{name: fields[0], args: fields[1:], pos: c})
		}
	}
	return out
}

// collectAnnotations gathers //act: annotations from every module-local
// package the loader has seen, reporting malformed or misplaced directives
// as diagnostics.
func collectAnnotations(l *loader) (*annotations, []diagnostic) {
	ann := newAnnotations()
	var diags []diagnostic
	bad := func(n ast.Node, format string, args ...any) {
		diags = append(diags, diagnostic{pos: l.position(n.Pos()), analyzer: "annotation", msg: fmt.Sprintf(format, args...)})
	}
	for _, p := range l.pkgs {
		if !p.local {
			continue
		}
		for _, f := range p.files {
			// allow-alloc and norecover are site-level comments: they may
			// appear anywhere in a file (typically trailing or directly
			// above the allocation or go statement), so they are collected
			// from the raw comment list by position.
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					if rest, ok := strings.CutPrefix(c.Text, "//act:allow-alloc"); ok {
						reason := strings.TrimSpace(rest)
						if reason == "" {
							bad(c, "//act:allow-alloc needs a reason")
							continue
						}
						pos := l.position(c.Pos())
						ann.allowAlloc[fmt.Sprintf("%s:%d", pos.Filename, pos.Line)] = reason
						continue
					}
					if rest, ok := strings.CutPrefix(c.Text, "//act:norecover"); ok {
						reason := strings.TrimSpace(rest)
						if reason == "" {
							bad(c, "//act:norecover needs a reason")
							continue
						}
						pos := l.position(c.Pos())
						ann.norecover[fmt.Sprintf("%s:%d", pos.Filename, pos.Line)] = reason
						continue
					}
					if rest, ok := strings.CutPrefix(c.Text, "//act:ignore-err"); ok {
						reason := strings.TrimSpace(rest)
						if reason == "" {
							bad(c, "//act:ignore-err needs a reason")
							continue
						}
						pos := l.position(c.Pos())
						ann.ignoreErr[fmt.Sprintf("%s:%d", pos.Filename, pos.Line)] = reason
					}
				}
			}
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					obj := l.info.Defs[d.Name]
					for _, dir := range parseDirectives(d.Doc) {
						applyFuncDirective(ann, obj, dir, bad)
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						ts, ok := spec.(*ast.TypeSpec)
						if !ok {
							continue
						}
						st, ok := ts.Type.(*ast.StructType)
						if !ok {
							continue
						}
						collectFieldAnnotations(l, ann, st, bad)
					}
				}
			}
		}
	}
	return ann, diags
}

// applyFuncDirective records one function-level directive.
func applyFuncDirective(ann *annotations, obj types.Object, dir directive, bad func(ast.Node, string, ...any)) {
	switch dir.name {
	case "requires":
		if len(dir.args) == 0 {
			bad(dir.pos, "//act:requires needs a mutex name")
			return
		}
		ann.requires[obj] = append(ann.requires[obj], dir.args...)
	case "exclusive":
		ann.exclusive[obj] = true
	case "frozen":
		ann.frozenFns[obj] = true
	case "freezer":
		ann.freezer[obj] = true
	case "mutates":
		if len(dir.args) == 0 {
			bad(dir.pos, "//act:mutates needs an argument index")
			return
		}
		for _, a := range dir.args {
			n, err := strconv.Atoi(a)
			if err != nil || n < 0 {
				bad(dir.pos, "//act:mutates: bad argument index %q", a)
				return
			}
			ann.mutates[obj] = append(ann.mutates[obj], n)
		}
	case "hotpath":
		ann.hotpath[obj] = true
	case "refresh":
		ann.refresh[obj] = true
	case "publisher":
		ann.publisher[obj] = true
	case "seam":
		ann.seam[obj] = true
	case "guarded", "published", "lock", "pinned", "atomic", "seqlock":
		bad(dir.pos, "//act:%s applies to struct fields, not functions", dir.name)
	case "allow-alloc", "norecover", "ignore-err":
		// Collected positionally from the raw comment list; as a doc
		// directive it still suppresses a site on the next line.
	case "alloc-harness":
		bad(dir.pos, "//act:alloc-harness belongs in a _test.go harness file")
	default:
		bad(dir.pos, "unknown directive //act:%s", dir.name)
	}
}

// collectFieldAnnotations records field-level directives of one struct type,
// validating guarded mutex names against the struct's own fields.
func collectFieldAnnotations(l *loader, ann *annotations, st *ast.StructType, bad func(ast.Node, string, ...any)) {
	mutexes := map[string]bool{}
	fields := map[string]bool{}
	for _, f := range st.Fields.List {
		for _, name := range f.Names {
			fields[name.Name] = true
			if t := l.typeOf(f.Type); t != nil && isMutex(t) {
				mutexes[name.Name] = true
			}
		}
	}
	for _, f := range st.Fields.List {
		for _, dir := range parseDirectives(f.Doc, f.Comment) {
			switch dir.name {
			case "guarded":
				if len(dir.args) != 1 {
					bad(dir.pos, "//act:guarded needs exactly one mutex name")
					continue
				}
				mu := dir.args[0]
				// A same-struct mutex must really be one; a name not in the
				// struct refers to an external lock (the owning object's).
				if fields[mu] && !mutexes[mu] {
					bad(dir.pos, "//act:guarded %s: field %s is not a sync.Mutex or sync.RWMutex", mu, mu)
					continue
				}
				for _, name := range f.Names {
					ann.guarded[l.info.Defs[name]] = mu
				}
			case "frozen":
				for _, name := range f.Names {
					ann.frozenFields[l.info.Defs[name]] = true
				}
			case "published":
				for _, name := range f.Names {
					ann.published[l.info.Defs[name]] = true
				}
			case "lock":
				if len(dir.args) != 1 {
					bad(dir.pos, "//act:lock needs exactly one class name")
					continue
				}
				for _, name := range f.Names {
					if !mutexes[name.Name] {
						bad(dir.pos, "//act:lock on %s, which is not a sync.Mutex or sync.RWMutex", name.Name)
						continue
					}
					ann.locks[l.info.Defs[name]] = dir.args[0]
				}
			case "pinned":
				for _, name := range f.Names {
					ann.pinned[l.info.Defs[name]] = true
				}
			case "atomic":
				for _, name := range f.Names {
					ann.atomic[l.info.Defs[name]] = true
				}
			case "seqlock":
				if len(dir.args) != 1 {
					bad(dir.pos, "//act:seqlock needs exactly one lock-class name")
					continue
				}
				if t := l.typeOf(f.Type); t == nil || !isAtomicUint(t) {
					bad(dir.pos, "//act:seqlock needs an atomic unsigned integer field (atomic.Uint32 or atomic.Uint64)")
					continue
				}
				for _, name := range f.Names {
					ann.seqlock[l.info.Defs[name]] = dir.args[0]
				}
			case "requires", "exclusive", "freezer", "mutates", "hotpath", "refresh", "publisher", "seam":
				bad(dir.pos, "//act:%s applies to functions, not struct fields", dir.name)
			case "allow-alloc", "norecover", "ignore-err":
				// Site-level; collected positionally.
			case "alloc-harness":
				bad(dir.pos, "//act:alloc-harness belongs in a _test.go harness file")
			default:
				bad(dir.pos, "unknown directive //act:%s", dir.name)
			}
		}
	}
}

// isMutex reports whether t is sync.Mutex or sync.RWMutex.
func isMutex(t types.Type) bool {
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync" &&
		(obj.Name() == "Mutex" || obj.Name() == "RWMutex")
}

// isAtomicType reports whether t is one of the sync/atomic wrapper types
// (atomic.Bool, atomic.Int64, atomic.Pointer[T], atomic.Value, ...).
func isAtomicType(t types.Type) bool {
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync/atomic"
}

// isAtomicUint reports whether t is atomic.Uint32 or atomic.Uint64, the only
// types a seqlock generation may have: parity is the protocol, so the word
// must be an unsigned integer bumped through the atomic API.
func isAtomicUint(t types.Type) bool {
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync/atomic" &&
		(obj.Name() == "Uint32" || obj.Name() == "Uint64")
}
