package main

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// lockorder enforces the //act:guarded and //act:requires contracts. It
// resolves every mutex field to a module-unique //act:lock class and
// follows facts across the call graph, in statement order:
//
//   - every sync.Mutex/sync.RWMutex struct field must declare its class
//     with //act:lock <name>, and class names must be unique in the module
//     (two structs may both call their field "mu"; the classes keep them
//     apart);
//   - //act:guarded and //act:requires names must resolve to a declared
//     class — the struct's own field first, then the unique class of that
//     name anywhere in the module (the owning-object idiom, e.g. the
//     compaction state that its index's mutex protects);
//   - double acquisition: a class re-locked in the same context, or a call
//     made with a class held into a function that (transitively) acquires
//     it again — sync.Mutex is not reentrant, so both self-deadlock;
//   - lock order: an edge A -> B is recorded whenever B is acquired with A
//     held (directly or through a call); any cycle in that graph is a
//     potential deadlock and is reported with its witness positions;
//   - unlocked reachability: per function, the classes that its guarded
//     accesses and callees demand are propagated up the call graph to a
//     fixpoint; a non-exclusive function whose body reaches guarded state
//     without acquiring or declaring the class is reported, which surfaces
//     an unlocked path from an exported entry point even when the access
//     sits several unannotated calls deep. Goroutine bodies start with
//     nothing held and are checked the same way, and a go statement that
//     launches an //act:requires function is always reported;
//   - an exported method must not return a guarded field whose type shares
//     storage (slice, map, pointer, chan, func, interface), nor the address
//     of any guarded field — callers would hold an interior pointer into
//     state that mutates under the writer lock.
//
// lockorder also rejects prose lock-contract comments — the phrasings
// matched by proseRE — on functions and fields that carry no matching
// //act: directive: the contract lives in the annotations, not in prose
// that drifts.
func lockorder(l *loader, cg *callGraph, ann *annotations, res *resolver) []diagnostic {
	diags := append([]diagnostic(nil), res.diags...)
	report := func(pos token.Pos, format string, args ...any) {
		diags = append(diags, diagnostic{pos: l.position(pos), analyzer: "lockorder", msg: fmt.Sprintf(format, args...)})
	}
	may := mayAcquire(cg)

	// Double acquisition and order edges.
	type edge struct {
		pos token.Pos
		via string
	}
	order := map[string]map[string]edge{} // held class -> acquired class
	addEdge := func(a, b string, pos token.Pos, via string) {
		if order[a] == nil {
			order[a] = map[string]edge{}
		}
		if _, ok := order[a][b]; !ok {
			order[a][b] = edge{pos: pos, via: via}
		}
	}
	for _, ctx := range cg.contexts {
		if ctx.obj != nil && ann.exclusive[ctx.obj] {
			continue
		}
		entry := res.entry(ctx)
		for _, e := range ctx.events {
			if e.unlock || e.class == "" {
				continue
			}
			if heldAt(ctx, entry, e.class, e.pos, false) {
				report(e.pos, "%s (class %s) acquired while already held in %s", e.name, e.class, contextName(ctx))
			}
			for _, a := range res.classes {
				if a != e.class && heldAt(ctx, entry, a, e.pos, false) {
					addEdge(a, e.class, e.pos, contextName(ctx))
				}
			}
		}
		for _, c := range ctx.calls {
			if c.inGo {
				for class := range res.requires[c.callee] {
					report(c.pos, "go statement calls %s, which requires %s held — goroutines inherit no locks", c.callee.Name(), class)
				}
				continue
			}
			callee := cg.decls[c.callee]
			if callee == nil {
				continue
			}
			for b := range may[c.callee] {
				if heldAt(ctx, entry, b, c.pos, false) {
					report(c.pos, "call to %s with %s held: %s may acquire %s again — self-deadlock",
						c.callee.Name(), b, c.callee.Name(), b)
					continue
				}
				for _, a := range res.classes {
					if a != b && heldAt(ctx, entry, a, c.pos, false) {
						addEdge(a, b, c.pos, "call to "+c.callee.Name())
					}
				}
			}
		}
	}

	// Cycle detection over the acquisition-order graph.
	for _, cyc := range findCycles(res.classes, func(a, b string) bool {
		_, ok := order[a][b]
		return ok
	}) {
		var parts []string
		for i, a := range cyc {
			b := cyc[(i+1)%len(cyc)]
			e := order[a][b]
			parts = append(parts, fmt.Sprintf("%s then %s at %s (%s)", a, b, l.position(e.pos), e.via))
		}
		first := order[cyc[0]][cyc[1%len(cyc)]]
		report(first.pos, "lock-order cycle %s -> %s: %s",
			strings.Join(cyc, " -> "), cyc[0], strings.Join(parts, "; "))
	}

	// Unlocked-reachability fixpoint: the classes each function demands
	// beyond its declared requires.
	type witness struct {
		pos token.Pos
		why string
	}
	needs := map[types.Object]map[string]witness{}
	need := func(obj types.Object, class string, w witness) bool {
		if needs[obj] == nil {
			needs[obj] = map[string]witness{}
		}
		if _, ok := needs[obj][class]; ok {
			return false
		}
		needs[obj][class] = w
		return true
	}
	for changed := true; changed; {
		changed = false
		for obj, ctx := range cg.decls {
			if ann.exclusive[obj] {
				continue
			}
			entry := res.entry(ctx)
			for _, a := range ctx.accesses {
				class := res.guardedClass[a.field]
				if class == "" || heldAt(ctx, entry, class, a.pos, false) {
					continue
				}
				if need(obj, class, witness{pos: a.pos, why: fmt.Sprintf("access to %s.%s", fieldOwner(a.field.(*types.Var)), a.field.Name())}) {
					changed = true
				}
			}
			for _, c := range ctx.calls {
				if c.inGo {
					continue
				}
				for class := range res.requires[c.callee] {
					if heldAt(ctx, entry, class, c.pos, false) {
						continue
					}
					if need(obj, class, witness{pos: c.pos, why: "call to " + c.callee.Name()}) {
						changed = true
					}
				}
				for class := range needs[c.callee] {
					if heldAt(ctx, entry, class, c.pos, false) {
						continue
					}
					if need(obj, class, witness{pos: c.pos, why: "call to " + c.callee.Name()}) {
						changed = true
					}
				}
			}
		}
	}
	for obj, ctx := range cg.decls {
		classes := make([]string, 0, len(needs[obj]))
		for class := range needs[obj] {
			classes = append(classes, class)
		}
		sort.Strings(classes)
		for _, class := range classes {
			w := needs[obj][class]
			entry := ""
			if token.IsExported(obj.Name()) {
				entry = " from exported entry point " + obj.Name()
			}
			report(w.pos, "%s reaches state guarded by %s without %s held%s (acquire it, or annotate //act:requires or //act:exclusive)",
				w.why, class, class, entry)
		}
		diags = append(diags, leakCheck(l, ann, ctx.decl)...)
	}
	// Goroutine contexts: checked directly, nothing propagates out of them.
	for _, ctx := range cg.contexts {
		if ctx.obj != nil {
			continue
		}
		for _, a := range ctx.accesses {
			class := res.guardedClass[a.field]
			if class == "" || heldAt(ctx, nil, class, a.pos, false) {
				continue
			}
			report(a.pos, "goroutine accesses %s.%s guarded by %s without acquiring it (goroutines inherit no locks)",
				fieldOwner(a.field.(*types.Var)), a.field.Name(), class)
		}
		for _, c := range ctx.calls {
			if c.inGo {
				continue
			}
			for class := range res.requires[c.callee] {
				if !heldAt(ctx, nil, class, c.pos, false) {
					report(c.pos, "goroutine calls %s, which runs under %s, without acquiring it", c.callee.Name(), class)
				}
			}
		}
	}

	diags = append(diags, proseCheck(l, ann)...)
	return diags
}

// contextName names a context for diagnostics.
func contextName(ctx *funcContext) string {
	if ctx.obj != nil {
		return ctx.obj.Name()
	}
	if ctx.encl != nil {
		return "goroutine in " + ctx.encl.Name()
	}
	return "goroutine"
}

// resolver maps the source-level mutex names of //act:guarded and
// //act:requires annotations onto //act:lock classes. It is built once
// per run and shared by every analyzer that tracks held classes
// (lockorder, atomcheck, seqcheck), so they agree on what a name means.
type resolver struct {
	l            *loader
	ann          *annotations
	diags        []diagnostic                     // vocabulary errors, reported by lockorder
	classes      []string                         // sorted class names
	byClass      map[string][]types.Object        // class -> declaring mutex fields
	byFieldName  map[string][]types.Object        // mutex field name -> fields
	guardedClass map[types.Object]string          // guarded field -> class
	requires     map[types.Object]map[string]bool // function -> classes held at entry
	structOf     map[types.Object]*structInfo     // field -> declaring struct
}

type structInfo struct {
	name   string
	fields map[string]types.Object
}

// newResolver collects the module's mutex fields and resolves every
// //act:guarded and //act:requires name to its class.
func newResolver(l *loader, ann *annotations) *resolver {
	res := &resolver{
		l:            l,
		ann:          ann,
		byClass:      map[string][]types.Object{},
		byFieldName:  map[string][]types.Object{},
		guardedClass: map[types.Object]string{},
		requires:     map[types.Object]map[string]bool{},
		structOf:     map[types.Object]*structInfo{},
	}
	for _, p := range l.pkgs {
		if !p.local {
			continue
		}
		for _, f := range p.files {
			for _, decl := range f.Decls {
				gd, ok := decl.(*ast.GenDecl)
				if !ok {
					continue
				}
				for _, spec := range gd.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok {
						continue
					}
					st, ok := ts.Type.(*ast.StructType)
					if !ok {
						continue
					}
					si := &structInfo{name: ts.Name.Name, fields: map[string]types.Object{}}
					for _, fl := range st.Fields.List {
						for _, name := range fl.Names {
							obj := l.info.Defs[name]
							si.fields[name.Name] = obj
							res.structOf[obj] = si
							if t := l.typeOf(fl.Type); t != nil && isMutex(t) {
								res.byFieldName[name.Name] = append(res.byFieldName[name.Name], obj)
								if class, ok := ann.locks[obj]; ok {
									res.byClass[class] = append(res.byClass[class], obj)
								}
							}
						}
					}
				}
			}
		}
	}
	for class := range res.byClass {
		res.classes = append(res.classes, class)
	}
	sort.Strings(res.classes)
	res.checkDeclarations()
	res.resolveRequires()
	return res
}

// entry returns the classes held when ctx starts running: its
// //act:requires classes, or nothing for a goroutine body.
func (res *resolver) entry(ctx *funcContext) map[string]bool {
	if ctx.obj == nil {
		return nil
	}
	return res.requires[ctx.obj]
}

func (res *resolver) report(pos token.Pos, format string, args ...any) {
	res.diags = append(res.diags, diagnostic{pos: res.l.position(pos), analyzer: "lockorder", msg: fmt.Sprintf(format, args...)})
}

// checkDeclarations enforces the class vocabulary: every mutex field
// declares a class, classes are unique, and every guarded name resolves.
func (res *resolver) checkDeclarations() {
	for name, fields := range res.byFieldName {
		for _, obj := range fields {
			if _, ok := res.ann.locks[obj]; !ok {
				res.report(obj.Pos(), "mutex field %s.%s needs //act:lock <class> (lockorder identifies locks by class, not field name)",
					res.structOf[obj].name, name)
			}
		}
	}
	for _, class := range res.classes {
		if fields := res.byClass[class]; len(fields) > 1 {
			owners := make([]string, len(fields))
			for i, obj := range fields {
				owners[i] = res.structOf[obj].name + "." + obj.Name()
			}
			sort.Strings(owners)
			res.report(fields[0].Pos(), "lock class %s declared by %s — class names must be unique in the module",
				class, strings.Join(owners, " and "))
		}
	}
	for field, name := range res.ann.guarded {
		if field == nil {
			continue
		}
		class, err := res.resolveIn(res.structOf[field], name)
		if err != "" {
			res.report(field.Pos(), "//act:guarded %s on %s: %s", name, field.Name(), err)
			continue
		}
		res.guardedClass[field] = class
	}
}

// resolveIn resolves a mutex name against a struct's own fields first,
// then against the module-wide class vocabulary.
func (res *resolver) resolveIn(si *structInfo, name string) (class, errMsg string) {
	if si != nil {
		if obj, ok := si.fields[name]; ok {
			if class, ok := res.ann.locks[obj]; ok {
				return class, ""
			}
			return "", fmt.Sprintf("field %s.%s carries no //act:lock class", si.name, name)
		}
	}
	if len(res.byClass[name]) > 0 {
		return name, ""
	}
	if fields := res.byFieldName[name]; len(fields) == 1 {
		if class, ok := res.ann.locks[fields[0]]; ok {
			return class, ""
		}
	}
	return "", fmt.Sprintf("%q names no lock class and no unique mutex field in the module", name)
}

// resolveRequires resolves every //act:requires annotation: the receiver
// struct's fields first, then the module-wide vocabulary.
func (res *resolver) resolveRequires() {
	for obj, names := range res.ann.requires {
		if obj == nil {
			continue
		}
		var si *structInfo
		if fn, ok := obj.(*types.Func); ok {
			if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
				si = res.structByType(recv.Type())
			}
		}
		for _, name := range names {
			class, err := res.resolveIn(si, name)
			if err != "" {
				res.report(obj.Pos(), "//act:requires %s on %s: %s", name, obj.Name(), err)
				continue
			}
			if res.requires[obj] == nil {
				res.requires[obj] = map[string]bool{}
			}
			res.requires[obj][class] = true
		}
	}
}

// structByType finds the structInfo of a (possibly pointer-to) named
// struct type.
func (res *resolver) structByType(t types.Type) *structInfo {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return nil
	}
	st, ok := n.Underlying().(*types.Struct)
	if !ok || st.NumFields() == 0 {
		return nil
	}
	return res.structOf[st.Field(0)]
}

// mayAcquire computes, per declared function, the set of classes its body
// may lock, transitively through calls. Goroutine bodies are excluded:
// their acquisitions happen on another stack and cannot re-enter a lock
// the caller holds.
func mayAcquire(cg *callGraph) map[types.Object]map[string]bool {
	may := map[types.Object]map[string]bool{}
	add := func(obj types.Object, class string) bool {
		if may[obj] == nil {
			may[obj] = map[string]bool{}
		}
		if may[obj][class] {
			return false
		}
		may[obj][class] = true
		return true
	}
	for changed := true; changed; {
		changed = false
		for obj, ctx := range cg.decls {
			for _, e := range ctx.events {
				if !e.unlock && e.class != "" && add(obj, e.class) {
					changed = true
				}
			}
			for _, c := range ctx.calls {
				if c.inGo {
					continue
				}
				for class := range may[c.callee] {
					if add(obj, class) {
						changed = true
					}
				}
			}
		}
	}
	return may
}

// findCycles returns the elementary cycles of the class graph reachable by
// DFS, each reported once, rotated to start at its smallest node.
func findCycles(nodes []string, hasEdge func(a, b string) bool) [][]string {
	var cycles [][]string
	seen := map[string]bool{}
	onStack := map[string]int{}
	var stack []string
	var dfs func(n string)
	dfs = func(n string) {
		onStack[n] = len(stack)
		stack = append(stack, n)
		for _, m := range nodes {
			if !hasEdge(n, m) {
				continue
			}
			if i, ok := onStack[m]; ok {
				cyc := append([]string(nil), stack[i:]...)
				rotateMin(cyc)
				key := strings.Join(cyc, "->")
				if !seen[key] {
					seen[key] = true
					cycles = append(cycles, cyc)
				}
				continue
			}
			dfs(m)
		}
		stack = stack[:len(stack)-1]
		delete(onStack, n)
	}
	for _, n := range nodes {
		dfs(n)
	}
	return cycles
}

// rotateMin rotates a cycle in place so it starts at its smallest element,
// giving each cycle one canonical spelling.
func rotateMin(cyc []string) {
	min := 0
	for i, v := range cyc {
		if v < cyc[min] {
			min = i
		}
	}
	rotated := append(append([]string(nil), cyc[min:]...), cyc[:min]...)
	copy(cyc, rotated)
}

// proseRE matches comment prose that states a locking rule; such prose
// must be backed by a machine-checked //act: directive.
var proseRE = regexp.MustCompile(`(?i)(guarded by|callers? must hold|while holding|must be held)`)

// proseCheck rejects lock prose on functions without //act:requires or
// //act:exclusive and on fields without //act:guarded or //act:lock.
func proseCheck(l *loader, ann *annotations) []diagnostic {
	var diags []diagnostic
	flag := func(g *ast.CommentGroup, ok bool, what, name string) {
		if g == nil || ok {
			return
		}
		for _, c := range g.List {
			if strings.HasPrefix(c.Text, "//act:") {
				continue
			}
			if m := proseRE.FindString(c.Text); m != "" {
				diags = append(diags, diagnostic{
					pos:      l.position(c.Pos()),
					analyzer: "lockorder",
					msg: fmt.Sprintf("prose lock comment (%q) on %s %s without a matching //act: directive — prose drifts, annotations are checked",
						m, what, name),
				})
			}
		}
	}
	for _, p := range l.pkgs {
		if !p.local {
			continue
		}
		for _, f := range p.files {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					obj := l.info.Defs[d.Name]
					ok := len(ann.requires[obj]) > 0 || ann.exclusive[obj]
					flag(d.Doc, ok, "function", d.Name.Name)
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
						for _, fl := range st.Fields.List {
							covered := false
							for _, name := range fl.Names {
								obj := l.info.Defs[name]
								if _, g := ann.guarded[obj]; g {
									covered = true
								}
								if _, lk := ann.locks[obj]; lk {
									covered = true
								}
							}
							fname := "(embedded)"
							if len(fl.Names) > 0 {
								fname = fl.Names[0].Name
							}
							flag(fl.Doc, covered, "field", fname)
							flag(fl.Comment, covered, "field", fname)
						}
					}
				}
			}
		}
	}
	return diags
}

// leakCheck flags an exported method returning guarded reference-typed
// state, or the address of any guarded field.
func leakCheck(l *loader, ann *annotations, fd *ast.FuncDecl) []diagnostic {
	if fd.Recv == nil || !token.IsExported(fd.Name.Name) {
		return nil
	}
	var diags []diagnostic
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false // keep to the returns of the method itself
		}
		ret, ok := n.(*ast.ReturnStmt)
		if !ok {
			return true
		}
		for _, r := range ret.Results {
			e, addr := unparen(r), false
			if ue, ok := e.(*ast.UnaryExpr); ok && ue.Op == token.AND {
				e, addr = unparen(ue.X), true
			}
			sel, ok := e.(*ast.SelectorExpr)
			if !ok {
				continue
			}
			fld := l.fieldOf(sel)
			if fld == nil {
				continue
			}
			if _, guarded := ann.guarded[fld]; !guarded || !(addr || sharesStorage(fld.Type())) {
				continue
			}
			diags = append(diags, diagnostic{
				pos:      l.position(r.Pos()),
				analyzer: "lockorder",
				msg: fmt.Sprintf("exported method %s returns guarded field %s — interior pointer into writer state",
					fd.Name.Name, fld.Name()),
			})
		}
		return true
	})
	return diags
}

// sharesStorage reports whether values of type t alias underlying storage
// when copied (so returning the field hands out an interior pointer).
func sharesStorage(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Slice, *types.Map, *types.Pointer, *types.Chan, *types.Signature, *types.Interface:
		return true
	}
	return false
}

// fieldOwner names the struct type declaring a field, for diagnostics.
func fieldOwner(fld *types.Var) string {
	if fld.Pkg() == nil {
		return "?"
	}
	// Walk the package scope for the named type whose underlying struct
	// contains the field.
	scope := fld.Pkg().Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok {
			continue
		}
		st, ok := tn.Type().Underlying().(*types.Struct)
		if !ok {
			continue
		}
		for i := 0; i < st.NumFields(); i++ {
			if st.Field(i) == fld {
				return tn.Name()
			}
		}
	}
	return "?"
}
