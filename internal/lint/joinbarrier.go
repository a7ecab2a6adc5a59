package lint

import (
	"go/ast"
	"go/types"
	"strings"

	"twsearch/internal/lint/cfg"
)

// JoinBarrier enforces the merged-at-the-join-barrier ownership protocol
// the parallel search driver relies on (core/parallel.go): a type marked
//
//	//twlint:join-merged
//
// in its doc comment (SearchStats, pending.Set) holds counters or shards
// that workers own privately while they run and the driver merges only
// after all workers have exited. In any function that
// spawns goroutines, the driver side may therefore touch such state only
// before the first spawn or after a join barrier — a sync.WaitGroup.Wait
// call or the completion of a `for ... range ch` drain over a channel.
// An access between spawn and join is exactly the race the exactness
// argument excludes ("no counter is ever written by two goroutines"), and
// the race detector only sees it on the schedules a test happens to hit.
//
// Worker-side accesses sit inside the `go` function literals and are
// exempt, as are functions that spawn nothing. Accesses through function
// literals that are not goroutines are not tracked (a closure body is a
// separate flow); the drivers' delivery closures touch only unmarked
// state. The marker is checked like every other: one that is not the doc
// comment of a struct type declaration is stale and reported.
var JoinBarrier = &Analyzer{
	Name: "joinbarrier",
	Doc: "join-merged state (//twlint:join-merged) touched between goroutine " +
		"spawn and the join barrier; merge only after Wait or the channel drain",
	Run: runJoinBarrier,
}

// joinMergedComment returns the //twlint:join-merged line of a doc comment.
func joinMergedComment(doc *ast.CommentGroup) *ast.Comment {
	if doc == nil {
		return nil
	}
	for _, c := range doc.List {
		if strings.HasPrefix(c.Text, "//twlint:join-merged") {
			return c
		}
	}
	return nil
}

func runJoinBarrier(pass *Pass) {
	if !pass.Library {
		return
	}
	jb := &joinChecker{pass: pass, marked: make(map[string]map[string]bool)}
	jb.collectLocalMarkers()

	for _, file := range pass.Files {
		if isTestFile(pass.Fset.Position(file.Pos())) {
			continue
		}
		for _, decl := range file.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				jb.checkFunc(fd)
			}
		}
	}
}

type joinChecker struct {
	pass *Pass
	// marked caches, per package path, the set of type names whose doc
	// carries //twlint:join-merged.
	marked map[string]map[string]bool
}

// collectLocalMarkers records this package's marked types and reports stale
// markers: a //twlint:join-merged that is not the doc comment of a struct
// type declaration protects nothing.
func (jb *joinChecker) collectLocalMarkers() {
	names, attached := scanJoinMerged(jb.pass.Files)
	jb.marked[jb.pass.Path] = names
	for _, file := range jb.pass.Files {
		if isTestFile(jb.pass.Fset.Position(file.Pos())) {
			continue
		}
		for _, group := range file.Comments {
			for _, c := range group.List {
				if strings.HasPrefix(c.Text, "//twlint:join-merged") && !attached[c] {
					jb.pass.ReportPos(c.Pos(), "stale //twlint:join-merged: the directive is not the doc comment of a struct type declaration, so it protects nothing; move it onto the type or delete it")
				}
			}
		}
	}
}

// scanJoinMerged finds marked struct type declarations in a file set.
func scanJoinMerged(files []*ast.File) (names map[string]bool, attached map[*ast.Comment]bool) {
	names = make(map[string]bool)
	attached = make(map[*ast.Comment]bool)
	for _, file := range files {
		for _, decl := range file.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				c := joinMergedComment(ts.Doc)
				if c == nil && len(gd.Specs) == 1 {
					c = joinMergedComment(gd.Doc)
				}
				if c == nil {
					continue
				}
				if _, isStruct := ts.Type.(*ast.StructType); isStruct {
					names[ts.Name.Name] = true
					attached[c] = true
				}
			}
		}
	}
	return names, attached
}

// isJoinMerged reports whether t (possibly behind pointers) is a named
// struct type marked //twlint:join-merged, resolving cross-package types
// through the loader's AST cache.
func (jb *joinChecker) isJoinMerged(t types.Type) bool {
	if t == nil {
		return false
	}
	for {
		if p, ok := t.Underlying().(*types.Pointer); ok {
			t = p.Elem()
			continue
		}
		break
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj == nil || obj.Pkg() == nil {
		return false
	}
	path := obj.Pkg().Path()
	names, ok := jb.marked[path]
	if !ok {
		names = make(map[string]bool)
		if jb.pass.src != nil && jb.pass.src.loader != nil {
			if dpkg := jb.pass.src.loader.cache[path]; dpkg != nil {
				names, _ = scanJoinMerged(dpkg.Files)
			}
		}
		jb.marked[path] = names
	}
	return names[obj.Name()]
}

// checkFunc analyzes one function declaration for driver-side accesses to
// join-merged state between spawn and join.
func (jb *joinChecker) checkFunc(fd *ast.FuncDecl) {
	// Cheap pre-scan: only functions that spawn goroutines have a barrier
	// protocol to violate.
	hasGo := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if _, ok := n.(*ast.GoStmt); ok {
			hasGo = true
		}
		return !hasGo
	})
	if !hasGo {
		return
	}

	g := cfg.Build(jb.pass.Fset, fd)
	dom := g.Dominators()

	// Spawn points, and the blocks reachable after one (successor closure).
	type point struct {
		b   *cfg.Block
		idx int
	}
	var spawns []point
	postSpawnBlock := make([]bool, len(g.Blocks))
	for _, b := range g.Blocks {
		for i, n := range b.Nodes {
			if _, ok := n.(*ast.GoStmt); ok {
				spawns = append(spawns, point{b, i})
			}
		}
	}
	if len(spawns) == 0 {
		return // every go statement sits inside a nested literal
	}
	var mark func(b *cfg.Block)
	mark = func(b *cfg.Block) {
		if postSpawnBlock[b.Index] {
			return
		}
		postSpawnBlock[b.Index] = true
		for _, s := range b.Succs {
			mark(s)
		}
	}
	for _, sp := range spawns {
		for _, s := range sp.b.Succs {
			mark(s)
		}
	}
	postSpawn := func(b *cfg.Block, i int) bool {
		if postSpawnBlock[b.Index] {
			return true
		}
		for _, sp := range spawns {
			if sp.b == b && i > sp.idx {
				return true
			}
		}
		return false
	}

	// Join points: a sync.WaitGroup.Wait node, or the done block of a
	// range over a channel (the drain completes when the loop exits).
	var waitJoins []point
	var doneBlocks []*cfg.Block
	for _, b := range g.Blocks {
		for i, n := range b.Nodes {
			if r, ok := n.(*ast.RangeStmt); ok {
				if tv, ok := jb.pass.Info.Types[r.X]; ok {
					if _, isChan := tv.Type.Underlying().(*types.Chan); isChan && len(b.Succs) == 2 {
						doneBlocks = append(doneBlocks, b.Succs[1])
					}
				}
				continue
			}
			if nodeHasWaitCall(jb.pass.Info, n) {
				waitJoins = append(waitJoins, point{b, i})
			}
		}
	}
	postJoin := func(b *cfg.Block, i int) bool {
		for _, j := range waitJoins {
			if dom.Dominates(j.b, b) && (b != j.b || i > j.idx) {
				return true
			}
		}
		for _, d := range doneBlocks {
			if dom.Dominates(d, b) {
				return true
			}
		}
		return false
	}

	for _, b := range g.Blocks {
		for i, n := range b.Nodes {
			if !postSpawn(b, i) || postJoin(b, i) {
				continue
			}
			jb.checkNode(n)
		}
	}
}

// nodeHasWaitCall reports whether a node calls sync.WaitGroup.Wait outside
// any nested function literal.
func nodeHasWaitCall(info *types.Info, n ast.Node) bool {
	found := false
	root := n
	cfg.InspectNode(n, func(x ast.Node) bool {
		if found {
			return false
		}
		if _, ok := x.(*ast.FuncLit); ok && x != root {
			return false
		}
		call, ok := x.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := calleeFunc(info, call)
		if fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "sync" && fn.Name() == "Wait" {
			found = true
		}
		return true
	})
	return found
}

// checkNode flags accesses to join-merged state in one mid-flight node.
// The walk stops at the outermost matching selector so one access yields
// one finding, and skips function literals (goroutine bodies are the
// workers' own side of the protocol).
func (jb *joinChecker) checkNode(n ast.Node) {
	root := n
	cfg.InspectNode(n, func(x ast.Node) bool {
		if _, ok := x.(*ast.FuncLit); ok && x != root {
			return false
		}
		sel, ok := x.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		hit := false
		if tv, ok := jb.pass.Info.Types[sel]; ok && jb.isJoinMerged(tv.Type) {
			hit = true
		}
		if s, ok := jb.pass.Info.Selections[sel]; ok && s.Kind() == types.FieldVal && jb.isJoinMerged(s.Recv()) {
			hit = true
		}
		if hit {
			jb.pass.Report(sel, "join-merged state %s touched between goroutine spawn and the join barrier; workers own it until Wait (or the channel drain) completes — move the access before the spawn or after the join", exprString(sel))
			return false
		}
		return true
	})
}

// exprString renders a small expression for a message.
func exprString(e ast.Expr) string {
	return types.ExprString(e)
}
