package lint

import (
	"go/ast"
	"go/token"
)

// CtxlessLoop reports condition-less `for {}` loops with no reachable exit
// in the search packages (core, multivar). The threshold-expansion loop
// (core.RunKNN) is intentionally unbounded in its loop header; its safety
// argument is the in-body limit check (eps > 1e18 → return). This analyzer
// pins that discipline: every `for {` in a search path must contain a
// break, a return, or a labeled exit of its own, so a future edit cannot
// turn threshold expansion into a spin that a production query then sits
// in forever.
var CtxlessLoop = &Analyzer{
	Name: "ctxless-loop",
	Doc: "unbounded for-loop in a search path with no break/return; add a " +
		"cancellation or limit check",
	Run: runCtxlessLoop,
}

// ctxloopPackages names the search-path packages the check applies to.
var ctxloopPackages = map[string]bool{"core": true, "multivar": true}

func runCtxlessLoop(pass *Pass) {
	if !pass.Library || !ctxloopPackages[pass.Pkg.Name()] {
		return
	}
	for _, file := range pass.Files {
		if isTestFile(pass.Fset.Position(file.Pos())) {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			loop, ok := n.(*ast.ForStmt)
			if !ok || loop.Cond != nil {
				return true
			}
			if !loopHasExit(loop) {
				pass.Report(loop, "unbounded for-loop has no break or return; add a cancellation or limit check")
			}
			return true
		})
	}
}

// loopHasExit reports whether the loop body contains a statement that can
// leave the loop: a return; an unlabeled break not captured by a nested
// for/switch/select; or a labeled break, which always names the loop itself
// or an enclosing statement and therefore exits the loop either way.
// Function literals start a new function and do not count.
func loopHasExit(loop *ast.ForStmt) bool {
	found := false
	var walk func(n ast.Node, depth int)
	walk = func(n ast.Node, depth int) {
		if n == nil || found {
			return
		}
		switch s := n.(type) {
		case *ast.FuncLit:
			return // new function: its returns do not exit our loop
		case *ast.ReturnStmt:
			found = true
			return
		case *ast.BranchStmt:
			if s.Tok == token.BREAK && (s.Label != nil || depth == 0) {
				found = true
			}
			return
		case *ast.ForStmt, *ast.RangeStmt, *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
			for _, child := range childNodes(n) {
				walk(child, depth+1)
			}
			return
		}
		for _, child := range childNodes(n) {
			walk(child, depth)
		}
	}
	for _, child := range childNodes(loop.Body) {
		walk(child, 0)
	}
	return found
}

// childNodes returns the direct child nodes of n.
func childNodes(n ast.Node) []ast.Node {
	var out []ast.Node
	first := true
	ast.Inspect(n, func(c ast.Node) bool {
		if first {
			first = false
			return true
		}
		if c != nil {
			out = append(out, c)
		}
		return false
	})
	return out
}
