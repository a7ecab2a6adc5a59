package lint

import (
	"go/ast"
	"go/token"
	"go/types"

	"twsearch/internal/lint/cfg"
)

// GoLeak flags library goroutines that can outlive the function that
// started them: a `go` statement after which some path reaches the
// function exit without passing a join point. A join point is a
// sync.WaitGroup.Wait call, a channel receive (`<-ch`, including a
// `case <-ch:` select arm), or a range over a channel.
//
// Library code (internal/*, seqdb) must not fire and forget: an orphaned
// worker holds buffers and file handles after Search returns, and tests
// under -race cannot see it finish. Commands may reasonably launch
// daemon goroutines, so only library packages are checked. The analysis
// is path-sensitive: joining on the happy path but returning early on
// error without waiting is exactly the bug it exists to catch.
var GoLeak = &Analyzer{
	Name: "goleak",
	Doc: "library goroutine with an exit path that never joins it; wait on " +
		"a WaitGroup or receive from a done channel on every path",
	Run: runGoLeak,
}

func runGoLeak(pass *Pass) {
	if !pass.Library {
		return
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkGoLeak(pass, fd)
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if lit, ok := n.(*ast.FuncLit); ok {
					checkGoLeak(pass, lit)
				}
				return true
			})
		}
	}
}

// checkGoLeak analyzes one function or function literal.
func checkGoLeak(pass *Pass, fn ast.Node) {
	any := false
	ast.Inspect(fn, func(n ast.Node) bool {
		if _, ok := n.(*ast.GoStmt); ok {
			any = true
		}
		return !any
	})
	if !any {
		return
	}

	g := cfg.Build(pass.Fset, fn)
	for _, b := range g.Blocks {
		for i, n := range b.Nodes {
			gs, ok := n.(*ast.GoStmt)
			if !ok {
				continue
			}
			leaks := g.PathToExit(b, i, func(node ast.Node) bool {
				return nodeJoins(pass.Info, node)
			})
			if leaks {
				pass.Report(gs, "goroutine may outlive the function: an exit path joins neither a WaitGroup nor a channel; wait on every path")
			}
		}
	}
}

// nodeJoins reports whether the CFG node contains a join point: a
// sync.WaitGroup.Wait call, a channel receive, or a range over a channel.
// Joins buried in nested function literals run at another time and do not
// count.
func nodeJoins(info *types.Info, n ast.Node) bool {
	found := false
	root := n
	cfg.InspectNode(n, func(x ast.Node) bool {
		if found {
			return false
		}
		if _, ok := x.(*ast.FuncLit); ok && x != root {
			return false
		}
		switch x := x.(type) {
		case *ast.CallExpr:
			fn := calleeFunc(info, x)
			if fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "sync" && fn.Name() == "Wait" {
				found = true
			}
		case *ast.UnaryExpr:
			if x.Op == token.ARROW {
				found = true
			}
		case *ast.RangeStmt:
			if tv, ok := info.Types[x.X]; ok {
				if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
					found = true
				}
			}
		}
		return !found
	})
	return found
}
