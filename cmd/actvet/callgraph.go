package main

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// The whole-program analyzers share one view of the module: every function
// declaration reduced to the events the analyses care about — mutex
// Lock/Unlock calls, resolved static call sites, accesses to //act:guarded
// fields and sync/atomic operations — in source order.
//
// A funcContext is the unit of analysis. Each function declaration is one
// context; a function literal launched by a go statement becomes a context
// of its own, because a goroutine starts on a fresh stack with no locks
// held and none of the caller's snapshot pins. Literals that are not
// go-launched (deferred closures, sort callbacks, immediately-invoked
// funcs) run on the creator's goroutine and merge into the enclosing
// context, with events inside deferred literals marked deferred — they
// fire at function exit, not at their source position.
type funcContext struct {
	obj  types.Object  // declared function; nil for go-launched literals
	decl *ast.FuncDecl // nil for go-launched literals
	lit  *ast.FuncLit  // set for go-launched literals
	encl types.Object  // for literals: the declaration they appear under
	pkg  *pkgData

	events   []lockEvent  // mutex operations, sorted by position
	calls    []callSite   // resolved static calls, sorted by position
	accesses []accessSite // guarded-field reads/writes, sorted by position
	atomics  []atomicOp   // sync/atomic operations on tracked fields, sorted
}

// lockEvent is one Lock/RLock/Unlock/RUnlock call on a mutex.
type lockEvent struct {
	class    string // resolved //act:lock class; "" when unresolvable
	name     string // source-level mutex name, for diagnostics
	pos      token.Pos
	unlock   bool
	rlock    bool // RLock/RUnlock: a shared hold, not an exclusive one
	deferred bool // runs at function exit (defer), not at its position
}

// atomicOp is one sync/atomic operation on a struct field under the atomics
// discipline (//act:atomic, or simply a sync/atomic-typed field): a method
// call on an atomic wrapper type or a legacy
// atomic.LoadX/StoreX/AddX/... call on the field's address.
type atomicOp struct {
	field    types.Object
	op       string // Load, Store, Add, Swap, CompareAndSwap, ...
	pos      token.Pos
	end      token.Pos // the call's closing parenthesis: when it has run
	deferred bool
}

// callSite is one statically resolved call.
type callSite struct {
	callee types.Object
	pos    token.Pos
	inGo   bool // direct callee of a go statement: runs later, unlocked
}

// accessSite is one access to an //act:guarded field.
type accessSite struct {
	field types.Object
	pos   token.Pos
}

// callGraph indexes every context of the module-local packages.
type callGraph struct {
	contexts []*funcContext
	decls    map[types.Object]*funcContext // declared functions only
}

// buildCallGraph walks every module-local package the loader has seen and
// extracts the per-context event streams.
func buildCallGraph(l *loader, ann *annotations) *callGraph {
	cg := &callGraph{decls: map[types.Object]*funcContext{}}
	for _, p := range l.pkgs {
		if !p.local {
			continue
		}
		for _, f := range p.files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj := l.info.Defs[fd.Name]
				ctx := &funcContext{obj: obj, decl: fd, pkg: p}
				cg.add(ctx)
				cg.walkBody(l, ann, ctx, fd.Body, false)
			}
		}
	}
	for _, ctx := range cg.contexts {
		sort.Slice(ctx.events, func(i, j int) bool { return ctx.events[i].pos < ctx.events[j].pos })
		sort.Slice(ctx.calls, func(i, j int) bool { return ctx.calls[i].pos < ctx.calls[j].pos })
		sort.Slice(ctx.accesses, func(i, j int) bool { return ctx.accesses[i].pos < ctx.accesses[j].pos })
		sort.Slice(ctx.atomics, func(i, j int) bool { return ctx.atomics[i].pos < ctx.atomics[j].pos })
	}
	return cg
}

func (cg *callGraph) add(ctx *funcContext) {
	cg.contexts = append(cg.contexts, ctx)
	if ctx.obj != nil {
		cg.decls[ctx.obj] = ctx
	}
}

// walkBody records events of one body into ctx. deferred marks everything
// found as running at function exit (the body of a deferred closure).
func (cg *callGraph) walkBody(l *loader, ann *annotations, ctx *funcContext, body ast.Node, deferred bool) {
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			if lit, ok := n.Call.Fun.(*ast.FuncLit); ok {
				enclObj := ctx.obj
				if enclObj == nil {
					enclObj = ctx.encl
				}
				sub := &funcContext{lit: lit, encl: enclObj, pkg: ctx.pkg}
				cg.add(sub)
				cg.walkBody(l, ann, sub, lit.Body, false)
			} else if callee := l.calleeOf(n.Call); callee != nil {
				ctx.calls = append(ctx.calls, callSite{callee: callee, pos: n.Pos(), inGo: true})
			}
			for _, arg := range n.Call.Args {
				ast.Inspect(arg, walk)
			}
			return false
		case *ast.DeferStmt:
			if ev, ok := cg.lockEventOf(l, ann, n.Call); ok {
				ev.deferred = true
				ctx.events = append(ctx.events, ev)
			} else if op, ok := atomicOpOf(l, ann, n.Call); ok {
				op.deferred = true
				ctx.atomics = append(ctx.atomics, op)
			} else if lit, ok := n.Call.Fun.(*ast.FuncLit); ok {
				cg.walkBody(l, ann, ctx, lit.Body, true)
			} else if callee := l.calleeOf(n.Call); callee != nil {
				ctx.calls = append(ctx.calls, callSite{callee: callee, pos: n.Pos()})
			}
			for _, arg := range n.Call.Args {
				ast.Inspect(arg, walk)
			}
			return false
		case *ast.CallExpr:
			if ev, ok := cg.lockEventOf(l, ann, n); ok {
				ev.deferred = deferred
				ctx.events = append(ctx.events, ev)
				return true
			}
			if op, ok := atomicOpOf(l, ann, n); ok {
				op.deferred = deferred
				ctx.atomics = append(ctx.atomics, op)
			}
			if callee := l.calleeOf(n); callee != nil {
				ctx.calls = append(ctx.calls, callSite{callee: callee, pos: n.Pos()})
			}
		case *ast.SelectorExpr:
			if fld := l.fieldOf(n); fld != nil {
				if _, ok := ann.guarded[fld]; ok {
					ctx.accesses = append(ctx.accesses, accessSite{field: fld, pos: n.Sel.Pos()})
				}
			}
		}
		return true
	}
	ast.Inspect(body, walk)
}

// lockEventOf recognizes <path>.<mu>.Lock/RLock/Unlock/RUnlock and resolves
// the mutex to its //act:lock class when <mu> is a struct field.
func (cg *callGraph) lockEventOf(l *loader, ann *annotations, call *ast.CallExpr) (lockEvent, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return lockEvent{}, false
	}
	var unlock, rlock bool
	switch sel.Sel.Name {
	case "Lock":
	case "RLock":
		rlock = true
	case "Unlock":
		unlock = true
	case "RUnlock":
		unlock, rlock = true, true
	default:
		return lockEvent{}, false
	}
	var muObj types.Object
	var muName string
	switch x := unparen(sel.X).(type) {
	case *ast.Ident:
		muObj = l.objOf(x)
		muName = x.Name
	case *ast.SelectorExpr:
		if fld := l.fieldOf(x); fld != nil {
			muObj = fld
		} else {
			muObj = l.objOf(x.Sel)
		}
		muName = x.Sel.Name
	default:
		return lockEvent{}, false
	}
	if muObj == nil || !isMutex(muObj.Type()) {
		return lockEvent{}, false
	}
	return lockEvent{class: ann.locks[muObj], name: muName, pos: call.Pos(), unlock: unlock, rlock: rlock}, true
}

// atomicTracked reports whether fld is under the atomics discipline: a
// sync/atomic-typed struct field, or one annotated //act:atomic.
func atomicTracked(ann *annotations, fld types.Object) bool {
	return fld != nil && (ann.atomic[fld] || isAtomicType(fld.Type()))
}

// atomicOpOf recognizes a sync/atomic operation on a tracked struct field:
// a method call on an atomic wrapper field (<x>.<f>.Load()) or a legacy
// package call on its address (atomic.AddInt64(&<x>.<f>, 1)).
func atomicOpOf(l *loader, ann *annotations, call *ast.CallExpr) (atomicOp, bool) {
	sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return atomicOp{}, false
	}
	// Method form: the receiver is a field of a sync/atomic wrapper type.
	if inner, ok := unparen(sel.X).(*ast.SelectorExpr); ok {
		if fld := l.fieldOf(inner); fld != nil && isAtomicType(fld.Type()) && atomicTracked(ann, fld) {
			if op, ok := atomicOpName(sel.Sel.Name); ok {
				return atomicOp{field: fld, op: op, pos: call.Pos(), end: call.Rparen}, true
			}
		}
	}
	// Legacy form: atomic.LoadUint64(&s.f), atomic.AddInt64(&s.f, 1), ...
	if callee := l.calleeOf(call); callee != nil && callee.Pkg() != nil && callee.Pkg().Path() == "sync/atomic" && len(call.Args) > 0 {
		if op, ok := atomicOpName(callee.Name()); ok {
			if ue, isAddr := unparen(call.Args[0]).(*ast.UnaryExpr); isAddr && ue.Op == token.AND {
				if fsel, ok := unparen(ue.X).(*ast.SelectorExpr); ok {
					if fld := l.fieldOf(fsel); atomicTracked(ann, fld) {
						return atomicOp{field: fld, op: op, pos: call.Pos(), end: call.Rparen}, true
					}
				}
			}
		}
	}
	return atomicOp{}, false
}

// atomicOpName maps a sync/atomic method or function name to its canonical
// operation (AddInt64 and Add are both "Add").
func atomicOpName(name string) (string, bool) {
	for _, op := range []string{"CompareAndSwap", "Load", "Store", "Swap", "Add", "Or", "And"} {
		if strings.HasPrefix(name, op) {
			return op, true
		}
	}
	return "", false
}

// heldAt reports whether class is held at pos within a context, given the
// classes held at entry: an acquisition before pos with no non-deferred
// release in between. Deferred unlocks fire at function exit, so they
// never release earlier positions. With exclusive set, RLock/RUnlock
// events are ignored: a shared hold does not make a writer.
func heldAt(ctx *funcContext, entry map[string]bool, class string, pos token.Pos, exclusive bool) bool {
	held := entry[class]
	for _, e := range ctx.events {
		if e.pos >= pos || e.class != class || e.class == "" || exclusive && e.rlock {
			continue
		}
		if e.unlock {
			if !e.deferred {
				held = false
			}
		} else {
			held = true
		}
	}
	return held
}
