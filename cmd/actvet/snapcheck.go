package main

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// snapcheck tracks snapshot lifetimes. The engine's reader contract is
// "pin one snapshot, do the whole batch against it": every Current() call
// is an independent atomic load, so two loads in one logical batch can
// straddle a publish and see different polygon sets (a torn view). The
// snapshot type is discovered structurally: any local named type T with a
// niladic method Current() *T. Three rules:
//
//   - torn view: a function context (declaration, or each function
//     literal, which is its own batch) that takes two fresh snapshots of
//     the same index — directly via Current(), or through calls to local
//     functions that transitively call Current() — is flagged. Charges are
//     keyed by the receiver chain's root (a.Current() and b.Current() are
//     different indexes, not a torn pair). //act:refresh on the function
//     states that re-reading the published pointer is the point (polling
//     loops, churn measurements) and exempts it; a refresh function also
//     stops the transitive charge at its callers.
//   - unpinned store: a *Snapshot assigned into a struct field outlives
//     the batch that took it; the field must opt in with //act:pinned
//     so long-lived pins (the compactor's base) are deliberate.
//   - guarded capture: a go statement whose body captures a slice or map
//     variable aliased straight from an //act:guarded field hands
//     writer-owned storage to a goroutine that runs outside the lock;
//     copy under the lock instead.
func snapcheck(l *loader, cg *callGraph, ann *annotations) []diagnostic {
	var diags []diagnostic
	snapTypes, currents := snapshotTypes(l, cg)
	if len(snapTypes) > 0 {
		uses := currentUsers(cg, ann, currents)
		chargeable := func(callee types.Object) bool {
			return currents[callee] || (uses[callee] && !ann.refresh[callee])
		}
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
					exempt := ann.refresh[obj] || currents[obj]
					diags = append(diags, tornViewWalk(l, fd.Body, exempt, chargeable)...)
					diags = append(diags, guardedCaptureWalk(l, ann, fd)...)
				}
			}
		}
		diags = append(diags, unpinnedStores(l, ann, snapTypes)...)
	}

	sort.Slice(diags, func(i, j int) bool { return diags[i].String() < diags[j].String() })
	return diags
}

// snapshotTypes discovers the snapshot types and their Current methods:
// local named types T with a method Current() *T taking no arguments.
func snapshotTypes(l *loader, cg *callGraph) (snapTypes map[*types.Named]bool, currents map[types.Object]bool) {
	snapTypes = map[*types.Named]bool{}
	currents = map[types.Object]bool{}
	for obj := range cg.decls {
		fn, ok := obj.(*types.Func)
		if !ok || fn.Name() != "Current" {
			continue
		}
		sig := fn.Type().(*types.Signature)
		if sig.Params().Len() != 0 || sig.Results().Len() != 1 || sig.Recv() == nil {
			continue
		}
		ptr, ok := sig.Results().At(0).Type().(*types.Pointer)
		if !ok {
			continue
		}
		named, ok := ptr.Elem().(*types.Named)
		if !ok || named.Obj().Pkg() == nil {
			continue
		}
		if _, ok := named.Underlying().(*types.Struct); !ok {
			continue
		}
		snapTypes[named] = true
		currents[obj] = true
	}
	return snapTypes, currents
}

// currentUsers computes which declared functions transitively take a fresh
// snapshot (call Current), to a fixpoint over the call graph. A function
// annotated //act:refresh absorbs its snapshot churn: callers are not
// charged for calling it.
func currentUsers(cg *callGraph, ann *annotations, currents map[types.Object]bool) map[types.Object]bool {
	uses := map[types.Object]bool{}
	for changed := true; changed; {
		changed = false
		for obj, ctx := range cg.decls {
			if uses[obj] {
				continue
			}
			for _, c := range ctx.calls {
				if c.inGo {
					continue
				}
				if currents[c.callee] || (uses[c.callee] && !ann.refresh[c.callee]) {
					uses[obj] = true
					changed = true
					break
				}
			}
		}
	}
	return uses
}

// tornViewWalk charges fresh-snapshot sites within one batch context —
// body without nested literals — and recurses into each literal as a new
// batch. Literals inherit the enclosing declaration's //act:refresh.
// Charges are bucketed by the receiver chain's root object, so snapshots
// of distinct indexes taken in one batch do not flag each other; calls
// with no resolvable receiver (plain helper functions) share one bucket.
func tornViewWalk(l *loader, body ast.Node, exempt bool, chargeable func(types.Object) bool) []diagnostic {
	var diags []diagnostic
	type site struct {
		pos  token.Pos
		what string
	}
	sites := map[types.Object][]site{}
	var order []types.Object
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			diags = append(diags, tornViewWalk(l, n.Body, exempt, chargeable)...)
			return false
		case *ast.CallExpr:
			if callee := l.calleeOf(n); callee != nil && chargeable(callee) {
				what := callee.Name() + "()"
				if callee.Name() != "Current" {
					what = callee.Name() + " (which takes a fresh snapshot)"
				}
				key := receiverRoot(l, n)
				if _, seen := sites[key]; !seen {
					order = append(order, key)
				}
				sites[key] = append(sites[key], site{pos: n.Pos(), what: what})
			}
		}
		return true
	}
	ast.Inspect(body, walk)
	if exempt {
		return diags
	}
	for _, key := range order {
		ss := sites[key]
		if len(ss) < 2 {
			continue
		}
		first := l.position(ss[0].pos)
		for _, s := range ss[1:] {
			diags = append(diags, diagnostic{
				pos:      l.position(s.pos),
				analyzer: "snapcheck",
				msg: fmt.Sprintf("%s takes a second fresh snapshot in one batch (first at %s:%d): torn view across a publish — pin one snapshot in a variable, or annotate //act:refresh",
					s.what, first.Filename, first.Line),
			})
		}
	}
	return diags
}

// receiverRoot resolves the object at the root of a call's receiver chain
// (idx in idx.Current(), e in e.idx.Current()), identifying which index a
// fresh snapshot was taken from. Returns nil when the call has no
// resolvable receiver.
func receiverRoot(l *loader, call *ast.CallExpr) types.Object {
	sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	for x := unparen(sel.X); ; {
		switch v := x.(type) {
		case *ast.Ident:
			return l.objOf(v)
		case *ast.SelectorExpr:
			x = unparen(v.X)
		case *ast.IndexExpr:
			x = unparen(v.X)
		default:
			return nil
		}
	}
}

// unpinnedStores flags *Snapshot values stored into struct fields that are
// not annotated //act:pinned, in assignments and composite literals.
func unpinnedStores(l *loader, ann *annotations, snapTypes map[*types.Named]bool) []diagnostic {
	var diags []diagnostic
	flag := func(pos token.Pos, field *types.Var) {
		diags = append(diags, diagnostic{
			pos:      l.position(pos),
			analyzer: "snapcheck",
			msg: fmt.Sprintf("snapshot stored into field %s.%s, which outlives the batch — annotate the field //act:pinned if the long-lived pin is deliberate",
				fieldOwner(field), field.Name()),
		})
	}
	isSnapPtr := func(t types.Type) bool {
		ptr, ok := t.(*types.Pointer)
		if !ok {
			return false
		}
		named, ok := ptr.Elem().(*types.Named)
		return ok && snapTypes[named]
	}
	for _, p := range l.pkgs {
		if !p.local {
			continue
		}
		for _, f := range p.files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					for i, lhs := range n.Lhs {
						if i >= len(n.Rhs) {
							break
						}
						sel, ok := unparen(lhs).(*ast.SelectorExpr)
						if !ok {
							continue
						}
						fld := l.fieldOf(sel)
						if fld == nil || ann.pinned[fld] || fld.Pkg() == nil {
							continue
						}
						if t := l.typeOf(n.Rhs[i]); t != nil && isSnapPtr(t) {
							flag(n.Rhs[i].Pos(), fld)
						}
					}
				case *ast.CompositeLit:
					t := l.typeOf(n)
					if t == nil {
						return true
					}
					st, ok := t.Underlying().(*types.Struct)
					if !ok {
						return true
					}
					for i, elt := range n.Elts {
						var fld *types.Var
						var val ast.Expr
						if kv, isKV := elt.(*ast.KeyValueExpr); isKV {
							key, isIdent := kv.Key.(*ast.Ident)
							if !isIdent {
								continue
							}
							v, isVar := l.objOf(key).(*types.Var)
							if !isVar {
								continue
							}
							fld, val = v, kv.Value
						} else if i < st.NumFields() {
							fld, val = st.Field(i), elt
						}
						if fld == nil || ann.pinned[fld] || fld.Pkg() == nil {
							continue
						}
						if vt := l.typeOf(val); vt != nil && isSnapPtr(vt) {
							flag(val.Pos(), fld)
						}
					}
				}
				return true
			})
		}
	}
	return diags
}

// guardedCaptureWalk flags go statements whose literal body captures a
// slice or map variable aliased directly from an //act:guarded field:
// the goroutine then reads writer-owned storage outside the lock. A copy
// made under the lock (append into a nil slice, maps.Clone) produces a
// fresh variable and passes; channels pass (the hand-off idiom).
func guardedCaptureWalk(l *loader, ann *annotations, fd *ast.FuncDecl) []diagnostic {
	var diags []diagnostic

	// Variables aliased from guarded fields by direct assignment.
	aliased := map[types.Object]types.Object{} // var -> guarded field
	ast.Inspect(fd, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for i, lhs := range as.Lhs {
			if i >= len(as.Rhs) {
				break
			}
			id, ok := unparen(lhs).(*ast.Ident)
			if !ok || id.Name == "_" {
				continue
			}
			rhs := unparen(as.Rhs[i])
			if sl, ok := rhs.(*ast.SliceExpr); ok {
				rhs = unparen(sl.X) // x.f[:] aliases x.f's storage
			}
			sel, ok := rhs.(*ast.SelectorExpr)
			if !ok {
				continue
			}
			fld := l.fieldOf(sel)
			if fld == nil {
				continue
			}
			if _, guarded := ann.guarded[fld]; !guarded {
				continue
			}
			if obj := l.objOf(id); obj != nil {
				aliased[obj] = fld
			}
		}
		return true
	})
	if len(aliased) == 0 {
		return nil
	}

	ast.Inspect(fd, func(n ast.Node) bool {
		gs, ok := n.(*ast.GoStmt)
		if !ok {
			return true
		}
		lit, ok := gs.Call.Fun.(*ast.FuncLit)
		if !ok {
			return true
		}
		for obj := range capturedObjects(l, lit, fd) {
			fldObj, ok := aliased[obj]
			if !ok {
				continue
			}
			switch obj.Type().Underlying().(type) {
			case *types.Slice, *types.Map:
				diags = append(diags, diagnostic{
					pos:      l.position(gs.Pos()),
					analyzer: "snapcheck",
					msg: fmt.Sprintf("goroutine captures %s, aliased from guarded field %s.%s — the goroutine reads writer-owned storage outside the lock; copy it under the lock instead",
						obj.Name(), fieldOwner(fldObj.(*types.Var)), fldObj.Name()),
				})
			}
		}
		return true
	})
	return diags
}

// capturedObjects returns the variable objects a function literal references
// that are declared outside it (free variables).
func capturedObjects(l *loader, lit *ast.FuncLit, encl *ast.FuncDecl) map[types.Object]bool {
	out := map[types.Object]bool{}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj, ok := l.info.Uses[id].(*types.Var)
		if !ok || obj.IsField() || obj.Pkg() == nil {
			return true
		}
		// Declared outside the literal but inside the enclosing declaration.
		if obj.Pos() < lit.Pos() && obj.Pos() > encl.Pos() {
			out[obj] = true
		}
		return true
	})
	return out
}
