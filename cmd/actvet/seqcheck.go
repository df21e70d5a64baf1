package main

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// seqcheck enforces the seqlock protocol on fields annotated
// //act:seqlock <class> (the sharded engine's commit generation).
//
// The protocol: the generation starts even; a writer takes the declared
// lock class exclusively, bumps the generation odd with Add(1), mutates the
// generation-protected state, and restores it even with a second Add(1) on
// *every* exit path — which in Go means the restoring bump must be
// deferred, because a panic in the protected region unwinds past any
// straight-line restore and leaves readers spinning on an odd generation
// forever. Readers either (a) run the even-stable pattern — load the
// generation, reject odd values, gather, and re-compare a second load
// against the first — or (b) hold the class (shared is enough: writers hold
// it exclusively) while they gather.
//
// Writer diagnostics: Store/Swap/CompareAndSwap on the generation (parity
// is the protocol; only paired Add(1) preserves it), Add with a delta other
// than 1, bumping without the class held exclusively, and unbalanced bumps
// — more plain bumps than deferred restores is precisely "a panic exits
// with the generation odd".
//
// Reader diagnostics, per context with unlocked loads: a single load (no
// stability re-check), no odd-test (g&1) of the loaded value, or no
// re-comparison against a second load.
func seqcheck(l *loader, cg *callGraph, ann *annotations, res *resolver) []diagnostic {
	var diags []diagnostic
	if len(ann.seqlock) == 0 {
		return nil
	}
	for fld, class := range ann.seqlock {
		if len(res.byClass[class]) == 0 {
			diags = append(diags, diagnostic{
				pos:      l.position(fld.Pos()),
				analyzer: "seqcheck",
				msg:      fmt.Sprintf("//act:seqlock %s on %s names no declared //act:lock class", class, fld.Name()),
			})
			continue
		}
		for _, ctx := range cg.contexts {
			diags = append(diags, seqcheckContext(l, ctx, res.entry(ctx), fld, class)...)
		}
	}
	return diags
}

// seqcheckContext applies the writer or reader rules to one context's
// operations on the seqlock field.
func seqcheckContext(l *loader, ctx *funcContext, entry map[string]bool, fld types.Object, class string) []diagnostic {
	var ops []atomicOp
	for _, op := range ctx.atomics {
		if op.field == fld {
			ops = append(ops, op)
		}
	}
	if len(ops) == 0 {
		return nil
	}
	writer := false
	for _, op := range ops {
		if op.op != "Load" {
			writer = true
		}
	}
	if writer {
		return seqcheckWriter(l, ctx, entry, ops, fld, class)
	}
	return seqcheckReader(l, ctx, entry, ops, fld, class)
}

func seqcheckWriter(l *loader, ctx *funcContext, entry map[string]bool, ops []atomicOp, fld types.Object, class string) []diagnostic {
	var diags []diagnostic
	diag := func(pos token.Pos, format string, args ...any) {
		diags = append(diags, diagnostic{pos: l.position(pos), analyzer: "seqcheck", msg: fmt.Sprintf(format, args...)})
	}
	plain, deferred := 0, 0
	var lastPlain token.Pos
	for _, op := range ops {
		switch op.op {
		case "Load":
			continue
		case "Add":
			if !op.argOne {
				diag(op.pos, "seqlock generation %s must move by Add(1): a larger delta skips parity states", fld.Name())
				continue
			}
		default:
			diag(op.pos, "seqlock generation %s written with %s: only paired Add(1) bumps preserve the odd/even protocol", fld.Name(), op.op)
			continue
		}
		if op.deferred {
			deferred++
			continue
		}
		plain++
		lastPlain = op.pos
		if !heldAt(ctx, entry, class, op.pos, true) {
			diag(op.pos, "seqlock writer bumps %s without holding lock class %s exclusively: "+
				"two concurrent writers tear the parity protocol", fld.Name(), class)
		}
	}
	if plain > deferred {
		diag(lastPlain, "seqlock writer leaves %s odd on a panic exit: %d bump(s) but %d deferred restore(s) "+
			"— pair every Add(1) with a deferred Add(1) so readers are released on every unwind", fld.Name(), plain, deferred)
	} else if deferred > plain {
		diag(ops[0].pos, "seqlock writer defers %d restore(s) of %s against %d bump(s): the generation goes backwards through odd", deferred, fld.Name(), plain)
	}
	return diags
}

func seqcheckReader(l *loader, ctx *funcContext, entry map[string]bool, ops []atomicOp, fld types.Object, class string) []diagnostic {
	var unlocked []atomicOp
	for _, op := range ops {
		if !heldAt(ctx, entry, class, op.pos, false) {
			unlocked = append(unlocked, op)
		}
	}
	if len(unlocked) == 0 {
		return nil // the declared lock fallback: writers hold it exclusively
	}
	var body ast.Node
	switch {
	case ctx.decl != nil:
		body = ctx.decl.Body
	case ctx.lit != nil:
		body = ctx.lit.Body
	default:
		return nil
	}
	var diags []diagnostic
	diag := func(pos token.Pos, format string, args ...any) {
		diags = append(diags, diagnostic{pos: l.position(pos), analyzer: "seqcheck", msg: fmt.Sprintf(format, args...)})
	}
	if len(unlocked) < 2 {
		diag(unlocked[0].pos, "seqlock reader loads %s once without lock class %s held: "+
			"it cannot detect a commit racing the gather (re-check a second Load, or take the lock)", fld.Name(), class)
		return diags
	}
	oddTest, recheck := false, false
	ast.Inspect(body, func(n ast.Node) bool {
		be, ok := n.(*ast.BinaryExpr)
		if !ok {
			return true
		}
		if be.Op == token.AND && (isConstOne(l, be.X) || isConstOne(l, be.Y)) {
			oddTest = true
		}
		if be.Op == token.EQL || be.Op == token.NEQ {
			if isLoadOf(l, be.X, fld) || isLoadOf(l, be.Y, fld) {
				recheck = true
			}
		}
		return true
	})
	if !oddTest {
		diag(unlocked[0].pos, "seqlock reader never tests %s for oddness (g&1): it gathers while a writer is mid-commit", fld.Name())
	}
	if !recheck {
		diag(unlocked[0].pos, "seqlock reader never re-compares a fresh %s.Load() against its first read: a torn gather goes undetected", fld.Name())
	}
	return diags
}

// isLoadOf reports whether e is a direct <x>.<fld>.Load() call (or the
// legacy atomic.LoadX(&<x>.<fld>)).
func isLoadOf(l *loader, e ast.Expr, fld types.Object) bool {
	call, ok := unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	if sel.Sel.Name == "Load" {
		if inner, ok := unparen(sel.X).(*ast.SelectorExpr); ok && l.fieldOf(inner) == fld {
			return true
		}
	}
	if callee := l.calleeOf(call); callee != nil && callee.Pkg() != nil && callee.Pkg().Path() == "sync/atomic" && len(call.Args) > 0 {
		if ue, ok := unparen(call.Args[0]).(*ast.UnaryExpr); ok && ue.Op == token.AND {
			if inner, ok := unparen(ue.X).(*ast.SelectorExpr); ok && l.fieldOf(inner) == fld {
				return true
			}
		}
	}
	return false
}
