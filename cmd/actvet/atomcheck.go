package main

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// atomcheck enforces the atomics discipline across the module:
//
//   - every struct field of a sync/atomic wrapper type carries //act:atomic
//     (or //act:seqlock, whose protocol subsumes it) — lock-free state is a
//     declared contract, not an implementation accident;
//   - an //act:atomic field of a plain word type (the legacy
//     atomic.LoadUint64(&f) style) is never touched outside the sync/atomic
//     package functions — one plain read racing the atomic writers is a data
//     race the race detector only finds when the schedule cooperates;
//   - a sync/atomic-typed field is never copied by value — the copy shares
//     no state with the original, and go vet's copylocks only catches the
//     cases that embed a noCopy;
//   - a Load followed by a Store on the same field in one function is a
//     read-modify-write that loses updates unless both ends run under one
//     held lock class or the function drives a CompareAndSwap loop on the
//     field. Add/Swap/CompareAndSwap are single atomic RMWs and are always
//     fine;
//   - Store and Swap on an //act:published field (the snapshot pointer)
//     appear only in //act:publisher functions. A go-launched literal takes
//     its publisher status from the declaration it appears in — the
//     compactor's landing goroutine is a literal inside an annotated
//     function.
func atomcheck(l *loader, cg *callGraph, ann *annotations, res *resolver) []diagnostic {
	var diags []diagnostic
	tracked := map[types.Object]bool{} // fields under the discipline

	// Pass 1: field declarations — atomic-typed fields must be annotated,
	// and every tracked field (annotated or not) joins the usage checks.
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
					for _, fld := range st.Fields.List {
						for _, name := range fld.Names {
							obj := l.info.Defs[name]
							if obj == nil {
								continue
							}
							if atomicTracked(ann, obj) {
								tracked[obj] = true
							}
							if _, seq := ann.seqlock[obj]; isAtomicType(obj.Type()) && !ann.atomic[obj] && !seq {
								diags = append(diags, diagnostic{
									pos:      l.position(name.Pos()),
									analyzer: "atomcheck",
									msg: fmt.Sprintf("field %s has atomic type %s but no //act:atomic annotation: "+
										"the lock-free contract must be declared", name.Name, obj.Type()),
								})
							}
						}
					}
				}
			}
		}
	}

	// Pass 2: every use of a tracked field must go through sync/atomic.
	for _, p := range l.pkgs {
		if !p.local {
			continue
		}
		for _, f := range p.files {
			diags = append(diags, atomcheckUses(l, ann, f, tracked)...)
		}
	}

	// Pass 3, per context: load-then-store read-modify-write sequences,
	// and writes to the published pointer outside the publish machinery.
	diags = append(diags, atomcheckRMW(l, cg, res)...)
	for _, ctx := range cg.contexts {
		publisher := ann.publisher[ctx.obj] || ctx.obj == nil && ann.publisher[ctx.encl]
		for _, op := range ctx.atomics {
			if ann.published[op.field] && !publisher && (op.op == "Store" || op.op == "Swap") {
				diags = append(diags, diagnostic{
					pos:      l.position(op.pos),
					analyzer: "atomcheck",
					msg:      fmt.Sprintf("%s on published field %s outside an //act:publisher function", op.op, op.field.Name()),
				})
			}
		}
	}
	return diags
}

// atomcheckUses walks one file flagging tracked-field selectors that appear
// outside the sanctioned shapes. For an atomic-typed field the shapes are a
// method call on the field and taking its address (to share the atomic via a
// pointer); for a plain-typed //act:atomic field, only an address-of that
// feeds a sync/atomic package call.
func atomcheckUses(l *loader, ann *annotations, f *ast.File, tracked map[types.Object]bool) []diagnostic {
	var diags []diagnostic
	var stack []ast.Node
	var visit func(n ast.Node) bool
	visit = func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, n)
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		fld := l.fieldOf(sel)
		if fld == nil || !tracked[fld] {
			return true
		}
		// The ancestor chain above the selector, parentheses skipped:
		// anc[0] is the parent, anc[1] the grandparent.
		var anc []ast.Node
		for j := len(stack) - 2; j >= 0 && len(anc) < 2; j-- {
			if _, ok := stack[j].(*ast.ParenExpr); ok {
				continue
			}
			anc = append(anc, stack[j])
		}
		var parent, grand ast.Node
		if len(anc) > 0 {
			parent = anc[0]
		}
		if len(anc) > 1 {
			grand = anc[1]
		}
		if isAtomicType(fld.Type()) {
			switch p := parent.(type) {
			case *ast.SelectorExpr:
				if unparen(p.X) == sel {
					return true // method access: x.f.Load()
				}
			case *ast.UnaryExpr:
				if p.Op == token.AND {
					return true // sharing the atomic by pointer
				}
			}
			diags = append(diags, diagnostic{
				pos:      l.position(sel.Sel.Pos()),
				analyzer: "atomcheck",
				msg: fmt.Sprintf("atomic field %s used by value: the copy is detached from the original "+
					"(operate through the field's methods, or share it as a pointer)", fld.Name()),
			})
			return true
		}
		// Legacy plain word under //act:atomic: &f as a direct argument of a
		// sync/atomic call is the only sanctioned shape.
		if ue, ok := parent.(*ast.UnaryExpr); ok && ue.Op == token.AND {
			if call, ok := grand.(*ast.CallExpr); ok {
				if callee := l.calleeOf(call); callee != nil && callee.Pkg() != nil && callee.Pkg().Path() == "sync/atomic" {
					return true
				}
			}
		}
		diags = append(diags, diagnostic{
			pos:      l.position(sel.Sel.Pos()),
			analyzer: "atomcheck",
			msg: fmt.Sprintf("field %s is //act:atomic but accessed without sync/atomic: "+
				"mixing plain and atomic access is a data race", fld.Name()),
		})
		return true
	}
	// Walk function bodies only: the field declarations themselves (and
	// their directives) are handled by pass 1.
	for _, decl := range f.Decls {
		if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
			stack = stack[:0]
			ast.Inspect(fd.Body, visit)
		}
	}
	return diags
}

// atomcheckRMW flags Load...Store sequences on one atomic field within one
// context: the classic lost-update shape. The sequence is accepted when the
// context also drives a CompareAndSwap on the field (a CAS loop re-validates
// the read) or when some lock class is held at both the load and the store.
func atomcheckRMW(l *loader, cg *callGraph, res *resolver) []diagnostic {
	var diags []diagnostic
	for _, ctx := range cg.contexts {
		byField := map[types.Object][]atomicOp{}
		for _, op := range ctx.atomics {
			byField[op.field] = append(byField[op.field], op)
		}
		for fld, ops := range byField {
			cas := false
			for _, op := range ops {
				if op.op == "CompareAndSwap" {
					cas = true
				}
			}
			if cas {
				continue
			}
			entry := res.entry(ctx)
			var loadPos token.Pos
			for _, op := range ops {
				if op.deferred {
					continue
				}
				switch op.op {
				case "Load":
					if loadPos == token.NoPos {
						loadPos = op.pos
					}
				case "Store":
					if loadPos == token.NoPos {
						continue
					}
					if lockedTogether(ctx, entry, loadPos, op.pos) {
						continue
					}
					diags = append(diags, diagnostic{
						pos:      l.position(op.pos),
						analyzer: "atomcheck",
						msg: fmt.Sprintf("load-then-store on atomic field %s is a racy read-modify-write: "+
							"another writer can interleave (use Add/CompareAndSwap, or hold one lock class across both)", fld.Name()),
					})
				}
			}
		}
	}
	return diags
}

// lockedTogether reports whether some single lock class is held (shared or
// exclusive) at both positions of a context.
func lockedTogether(ctx *funcContext, entry map[string]bool, p1, p2 token.Pos) bool {
	seen := map[string]bool{}
	for c := range entry {
		seen[c] = true
	}
	for _, e := range ctx.events {
		if e.class != "" {
			seen[e.class] = true
		}
	}
	for c := range seen {
		if heldAt(ctx, entry, c, p1, false) && heldAt(ctx, entry, c, p2, false) {
			return true
		}
	}
	return false
}
