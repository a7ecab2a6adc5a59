package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// funcNode is one declared function of a package under analysis: its type
// object, declaration and signature.
type funcNode struct {
	fn   *types.Func
	decl *ast.FuncDecl
	sig  *types.Signature
}

// callGraph indexes a package's function declarations so ctxflow's summary
// fixpoint can resolve package-local call sites. Resolution is static —
// plain calls and method calls through calleeFunc — so calls through
// function values or interfaces stay unresolved, the same conservative
// stance the rest of the suite takes.
type callGraph struct {
	info  *types.Info
	funcs map[*types.Func]*funcNode
	// order lists the functions in file/declaration order, so fixpoint
	// iteration (and therefore any derived diagnostics) is deterministic.
	order []*funcNode
}

// buildCallGraph indexes every bodied function declaration of the package's
// non-test files.
func buildCallGraph(fset *token.FileSet, files []*ast.File, info *types.Info) *callGraph {
	cg := &callGraph{info: info, funcs: make(map[*types.Func]*funcNode)}
	for _, file := range files {
		if isTestFile(fset.Position(file.Pos())) {
			continue
		}
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, _ := info.Defs[fd.Name].(*types.Func)
			if obj == nil {
				continue
			}
			fn := &funcNode{fn: obj, decl: fd, sig: obj.Type().(*types.Signature)}
			cg.funcs[obj] = fn
			cg.order = append(cg.order, fn)
		}
	}
	return cg
}

// callee resolves a call expression to a declared function of this package,
// or nil for external, dynamic and interface calls.
func (cg *callGraph) callee(call *ast.CallExpr) *funcNode {
	fn := calleeFunc(cg.info, call)
	if fn == nil {
		return nil
	}
	return cg.funcs[fn]
}

// paramIndex maps argument position i of a call to fn's receiving parameter
// index, folding a variadic tail onto the variadic parameter. Returns -1
// when the argument has no parameter (malformed code only).
func paramIndex(sig *types.Signature, i int) int {
	n := sig.Params().Len()
	switch {
	case n == 0:
		return -1
	case sig.Variadic() && i >= n-1:
		return n - 1
	case i >= n:
		return -1
	}
	return i
}
