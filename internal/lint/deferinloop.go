package lint

import "go/ast"

// DeferInLoop flags a defer statement lexically inside a loop body in
// non-test code. Deferred calls run at function return, not at the end of
// the iteration, so a defer in a loop accumulates one pending call per
// iteration — unlock/close resources pile up for the lifetime of the
// function and the usual "defer right after acquire" idiom silently turns
// into a leak amplifier.
//
// A function literal resets the loop context: a defer inside a closure
// runs when the closure returns, once per call, which is the standard fix
// (wrap the iteration body in a func). Deliberate accumulation across a
// small fixed loop is the exceptional case and takes a
// //lint:ignore deferinloop directive with its justification.
var DeferInLoop = &Analyzer{
	Name: "deferinloop",
	Doc: "defer inside a loop body runs at function return, not per " +
		"iteration; wrap the body in a function or release explicitly",
	Run: runDeferInLoop,
}

func runDeferInLoop(pass *Pass) {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			walkDeferInLoop(pass, fd.Body, 0)
		}
	}
}

// walkDeferInLoop descends n with the current lexical loop depth.
func walkDeferInLoop(pass *Pass, n ast.Node, depth int) {
	ast.Inspect(n, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.ForStmt:
			if x.Init != nil {
				walkDeferInLoop(pass, x.Init, depth)
			}
			if x.Post != nil {
				walkDeferInLoop(pass, x.Post, depth)
			}
			walkDeferInLoop(pass, x.Body, depth+1)
			return false
		case *ast.RangeStmt:
			walkDeferInLoop(pass, x.Body, depth+1)
			return false
		case *ast.FuncLit:
			walkDeferInLoop(pass, x.Body, 0)
			return false
		case *ast.DeferStmt:
			if depth > 0 {
				pass.Report(x, "defer inside a loop runs at function return, not per iteration; wrap the body in a function or release explicitly")
			}
		}
		return true
	})
}
