package lint

import (
	"go/ast"
	"go/types"
)

// ViewEscape enforces the PageSource borrowing contract statically. A call
//
//	page, release, err := src.View(id)
//
// lends the caller a page for the window between the call and release():
// for the pool backend the frame is pinned (and can never be evicted) until
// release runs, and for every backend the bytes may be remapped or recycled
// after it. The analyzer finds View call sites — any method named View
// returning ([]byte, func(), error) — and reports, anchored at the call:
//
//   - a view or release value stored outside the function: a struct field,
//     a dereference, an index expression, or a package-level variable
//   - a view or release value returned, sent on a channel, placed in a
//     composite literal, captured by a function literal, or appended into
//     a growing slice
//   - a release function discarded with the blank identifier (the pin is
//     never dropped; on the pool backend the frame leaks)
//
// Deliberate retention — the disktree Reader holds one view in struct
// fields until the next view or Close, and its owners close it on every
// return path — is audited in place with //lint:ignore viewescape <reason>,
// so each ownership argument is written down where it holds. Interprocedural
// retention (passing the view to a function that stashes it) is out of this
// analyzer's reach and belongs to the same audit discipline.
var ViewEscape = &Analyzer{
	Name: "viewescape",
	Doc: "a page view borrowed from PageSource.View escapes the borrowing " +
		"function (field store, return, closure capture, channel send, " +
		"append) or its release func is discarded; copy the bytes out, " +
		"release before every return, or audit with //lint:ignore viewescape",
	Run: runViewEscape,
}

func runViewEscape(pass *Pass) {
	for _, file := range pass.Files {
		if isTestFile(pass.Fset.Position(file.Pos())) {
			continue
		}
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkViewCalls(pass, fd)
		}
	}
}

// isViewCall reports whether call is a method call named View returning the
// borrowing triple ([]byte, func(), error) — the PageSource shape, matched
// structurally so fakes and wrappers are held to the same contract.
func isViewCall(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "View" {
		return false
	}
	tup, ok := info.TypeOf(call).(*types.Tuple)
	if !ok || tup.Len() != 3 {
		return false
	}
	slice, ok := tup.At(0).Type().Underlying().(*types.Slice)
	if !ok {
		return false
	}
	if basic, ok := slice.Elem().Underlying().(*types.Basic); !ok || basic.Kind() != types.Byte {
		return false
	}
	sig, ok := tup.At(1).Type().Underlying().(*types.Signature)
	if !ok || sig.Params().Len() != 0 || sig.Results().Len() != 0 {
		return false
	}
	return types.Identical(tup.At(2).Type(), types.Universe.Lookup("error").Type())
}

// checkViewCalls finds every View call in the function and checks what the
// borrowed values do afterwards.
func checkViewCalls(pass *Pass, fd *ast.FuncDecl) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Rhs) != 1 || len(as.Lhs) != 3 {
			return true
		}
		call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
		if !ok || !isViewCall(pass.Info, call) {
			return true
		}
		// The view slice and release func the call lends out, by role.
		tracked := make(map[types.Object]string)
		for i, role := range []string{"view", "release func"} {
			lhs := ast.Unparen(as.Lhs[i])
			id, ok := lhs.(*ast.Ident)
			if !ok {
				pass.Report(call, "the borrowed %s of View is stored straight into a non-local target; bind it to a local, release on every return path, or audit with //lint:ignore viewescape", role)
				continue
			}
			if id.Name == "_" {
				if role != "view" {
					pass.Report(call, "View's release func is discarded; the borrow is never returned (on the pool backend the frame stays pinned forever) — call it on every path instead")
				}
				continue
			}
			obj := pass.Info.Defs[id]
			if obj == nil {
				obj = pass.Info.Uses[id]
			}
			if obj == nil {
				continue
			}
			if obj.Parent() == pass.Pkg.Scope() {
				pass.Report(call, "the borrowed %s of View is assigned to package-level %s, escaping the borrowing function; bind it to a local or audit with //lint:ignore viewescape", role, obj.Name())
				continue
			}
			tracked[obj] = role
		}
		if len(tracked) > 0 {
			reportViewEscapes(pass, fd, call, tracked)
		}
		return true
	})
}

// reportViewEscapes walks the borrowing function for uses of the tracked
// values that outlive it. Findings anchor at the View call so an audited
// //lint:ignore directly above the call covers every escape it owns.
func reportViewEscapes(pass *Pass, fd *ast.FuncDecl, call *ast.CallExpr, tracked map[types.Object]string) {
	line := func(n ast.Node) int { return pass.Fset.Position(n.Pos()).Line }
	// mentions reports the role of the first tracked value the expression
	// refers to, if any. An expression of basic type (page[0], len(page),
	// string(page)) is a copy of the bytes, not an alias, and cannot retain
	// the view — closure bodies get no such exemption, since even a read
	// inside one may run after release.
	mentions := func(e ast.Node) (string, bool) {
		if expr, ok := e.(ast.Expr); ok {
			if t := pass.Info.TypeOf(expr); t != nil {
				if _, basic := t.Underlying().(*types.Basic); basic {
					return "", false
				}
			}
		}
		var role string
		found := false
		ast.Inspect(e, func(n ast.Node) bool {
			if found {
				return false
			}
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			if r, ok := tracked[pass.Info.Uses[id]]; ok {
				role, found = r, true
				return false
			}
			return true
		})
		return role, found
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Lhs) != len(n.Rhs) {
				return true
			}
			for i, rhs := range n.Rhs {
				role, ok := mentions(rhs)
				if !ok {
					continue
				}
				lhs := ast.Unparen(n.Lhs[i])
				if id, isIdent := lhs.(*ast.Ident); isIdent {
					obj := pass.Info.Defs[id]
					if obj == nil {
						obj = pass.Info.Uses[id]
					}
					if id.Name == "_" || obj == nil || obj.Parent() != pass.Pkg.Scope() {
						continue // a local rebinding keeps the borrow in scope
					}
				}
				pass.Report(call, "the borrowed %s of View escapes: stored on line %d, it outlives the release window; copy the bytes out instead, or audit with //lint:ignore viewescape", role, line(n))
			}
		case *ast.ReturnStmt:
			for _, r := range n.Results {
				if role, ok := mentions(r); ok {
					pass.Report(call, "the borrowed %s of View escapes: returned on line %d after the borrowing function's release window; copy the bytes out instead", role, line(n))
				}
			}
		case *ast.SendStmt:
			if role, ok := mentions(n.Value); ok {
				pass.Report(call, "the borrowed %s of View escapes: sent on a channel on line %d; the receiver outlives the release window", role, line(n))
			}
		case *ast.CompositeLit:
			for _, el := range n.Elts {
				if role, ok := mentions(el); ok {
					pass.Report(call, "the borrowed %s of View escapes: placed in a composite literal on line %d; copy the bytes out instead", role, line(n))
				}
			}
			return false // elements already checked; don't re-report nested uses
		case *ast.FuncLit:
			if role, ok := mentions(n.Body); ok {
				pass.Report(call, "the borrowed %s of View escapes: captured by the function literal on line %d, which may run after release", role, line(n))
			}
			return false // the capture finding covers the literal's body
		case *ast.CallExpr:
			id, ok := ast.Unparen(n.Fun).(*ast.Ident)
			if !ok {
				return true
			}
			if _, builtin := pass.Info.Uses[id].(*types.Builtin); !builtin || id.Name != "append" {
				return true
			}
			for _, arg := range n.Args {
				if role, ok := mentions(arg); ok {
					pass.Report(call, "the borrowed %s of View escapes: appended into a slice on line %d that outlives the release window; copy the bytes out instead", role, line(n))
				}
			}
		}
		return true
	})
}
