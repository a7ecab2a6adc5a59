package lint

import (
	"go/ast"
	"go/types"
)

// PanicPath reports panic calls reachable from the exported API of library
// packages. The search engine's callers (servers holding millions of users'
// queries) must get errors, not process aborts; a panic is acceptable only
// as an unreachable-state assertion, and then the call site must carry a
// //lint:ignore panicpath directive stating the invariant that makes it
// unreachable.
//
// Reachability is computed per package: a panic is reported when it occurs
// lexically inside an exported function or method, or inside an unexported
// function that some exported function of the same package calls
// (transitively, through static calls).
var PanicPath = &Analyzer{
	Name: "panicpath",
	Doc: "panic() reachable from exported library API; return an error or " +
		"annotate the call site with the invariant that makes it unreachable",
	Run: runPanicPath,
}

func runPanicPath(pass *Pass) {
	if !pass.Library {
		return
	}

	type fnInfo struct {
		decl   *ast.FuncDecl
		panics []*ast.CallExpr
		calls  []*types.Func // static intra-package callees
	}
	fns := make(map[*types.Func]*fnInfo)

	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, _ := pass.Info.Defs[fd.Name].(*types.Func)
			if obj == nil {
				continue
			}
			info := &fnInfo{decl: fd}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
					if _, isBuiltin := pass.Info.Uses[id].(*types.Builtin); isBuiltin {
						info.panics = append(info.panics, call)
						return true
					}
				}
				if callee := calleeFunc(pass.Info, call); callee != nil && callee.Pkg() == pass.Pkg {
					info.calls = append(info.calls, callee)
				}
				return true
			})
			fns[obj] = info
		}
	}

	// Breadth-first walk from every exported function; record, for each
	// reachable function, one exported entry point for the message.
	via := make(map[*types.Func]*types.Func)
	var queue []*types.Func
	for obj := range fns {
		if obj.Exported() {
			via[obj] = obj
			queue = append(queue, obj)
		}
	}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, callee := range fns[cur].calls {
			if _, seen := via[callee]; seen {
				continue
			}
			if _, known := fns[callee]; !known {
				continue
			}
			via[callee] = via[cur]
			queue = append(queue, callee)
		}
	}

	for obj, info := range fns {
		entry, reachable := via[obj]
		if !reachable {
			continue
		}
		for _, p := range info.panics {
			if entry == obj {
				pass.Report(p, "panic reachable from exported %s; return an error instead", obj.Name())
			} else {
				pass.Report(p, "panic in %s reachable from exported %s; return an error instead", obj.Name(), entry.Name())
			}
		}
	}
}

// calleeFunc resolves a call expression to the static *types.Func it
// invokes, when that can be determined (plain calls and method calls;
// not calls through function values or interfaces).
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			if sel.Kind() == types.MethodVal {
				fn, _ := sel.Obj().(*types.Func)
				return fn
			}
			return nil
		}
		// Package-qualified call: pkg.Fn(...).
		fn, _ := info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}
