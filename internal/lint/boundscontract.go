package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"twsearch/internal/lint/cfg"
)

// BoundsContract statically enforces the usage discipline behind the
// paper's no-false-dismissal guarantee (THEORY.md §1–3). Values produced by
// the lower-bound APIs — the min-dist returns of dtw.Table.AddRow*,
// dtw.DistanceIntervals, and any function or parameter carrying a bound
// according to the interprocedural summaries — are *proven lower bounds* of
// the exact time warping distance (Theorems 1–3), nothing more. Two rules
// follow:
//
//  1. A bound may only gate pruning through a strict test: `bound > eps`
//     discards, `bound <= eps` keeps. `bound >= eps` (or `==`, `!=`,
//     `<`, or the mirrored forms) discards a candidate whose exact
//     distance could still equal eps — a silent false dismissal.
//  2. A bound must never be published as an exact answer distance: a
//     `Distance:` field built from a bound-tainted value is only legal on
//     a path dominated by the true branch of an `exact` test; otherwise
//     the candidate has to flow through post-processing.
//
// The analysis is flow-sensitive and interprocedural: a CFG is built per
// function, a may-taint lattice over go/types objects tracks which
// variables can hold a bound at each program point (arithmetic such as the
// D_tw-lb2 shift discount `dist - float64(j)*base0` keeps a value a
// bound), and per-function bound-taint summaries — computed by fixpoint
// over the package call graph, with cross-package producers resolved
// through their own packages' summaries — track flow through helpers
// automatically. //twlint:bound-source markers remain the roots where a
// bound is born from arithmetic the checker cannot see through; every
// marker is also a checked assertion: one that inference already derives,
// disagrees with, or that declares nothing is itself a finding (see
// HACKING.md "Static analysis").
var BoundsContract = &Analyzer{
	Name: "boundscontract",
	Doc: "lower-bound distance used outside the Theorem 1-3 contract: " +
		"pruning must test bound > eps (never >=, <, == or !=), and a bound " +
		"may not become an exact Match distance outside an exact-guarded path",
	Run: runBoundsContract,
}

func runBoundsContract(pass *Pass) {
	if !pass.Library {
		return
	}
	an := pass.analysis()
	if an == nil {
		return
	}
	validateBoundMarkers(pass, an)

	bc := &boundsChecker{pass: pass, an: an, dep: pass.depSummary}
	for _, fnode := range an.cg.order {
		bc.checkFuncNode(fnode)
		ast.Inspect(fnode.decl.Body, func(n ast.Node) bool {
			if lit, ok := n.(*ast.FuncLit); ok {
				// Literals are separate flows with no seeds — captured
				// bounds cross the boundary through summarized calls, not
				// captured variables.
				bc.checkFunc(cfg.Build(pass.Fset, lit), nil)
			}
			return true
		})
	}
}

// validateBoundMarkers treats every //twlint:bound-source as a checked
// assertion against the inferred summaries: markers that declare nothing,
// name impossible positions, float free of any function declaration or
// interface method,
// understate what inference proves, or restate what inference derives
// without them are all findings.
func validateBoundMarkers(pass *Pass, an *pkgAnalysis) {
	attached := make(map[*ast.Comment]bool, len(an.markers))
	for i := range an.markers {
		attached[an.markers[i].comment] = true
	}
	for _, file := range pass.Files {
		if isTestFile(pass.Fset.Position(file.Pos())) {
			continue
		}
		for _, group := range file.Comments {
			for _, c := range group.List {
				if strings.HasPrefix(c.Text, "//twlint:bound-source") && !attached[c] {
					pass.ReportPos(c.Pos(), "stale //twlint:bound-source: the directive is not the doc comment of a function declaration or interface method, so it declares nothing; move it onto the producer or delete it")
				}
			}
		}
	}

	dep := pass.src.loader.depResolver(pass.src)
	for i := range an.markers {
		mi := &an.markers[i]
		for _, s := range mi.badResults {
			pass.ReportPos(mi.comment.Pos(), "//twlint:bound-source results=%s does not name a result of %s (which has %d); the stale declaration would silently drop the bound", s, mi.fn.Name(), mi.fn.Type().(*types.Signature).Results().Len())
		}
		for _, name := range mi.badParams {
			pass.ReportPos(mi.comment.Pos(), "//twlint:bound-source params=%s names no parameter of %s; the stale declaration would silently drop the bound", name, mi.fn.Name())
		}
		if !mi.declResults && !mi.declParams {
			pass.ReportPos(mi.comment.Pos(), "//twlint:bound-source declares nothing; add results= or params=, or delete the marker")
			continue
		}
		if an.cg.funcs[mi.fn] == nil {
			continue // bodyless declaration: nothing to infer against
		}

		// Redundancy: recompute the fixpoint without this marker; if the
		// declared mask is still derived, the marker restates inference.
		loo := computeSummaries(an.cg, markerMasks(an.markers, mi), dep)
		if s := loo[mi.fn]; s != nil && s.covers(mi.mask) {
			pass.ReportPos(mi.comment.Pos(), "redundant //twlint:bound-source on %s: the interprocedural summary already derives it; delete the marker", mi.fn.Name())
			continue
		}

		// Understatement: the full fixpoint (marker included) proves more
		// positions than the marker declares on a dimension it declares.
		inferred := an.sums[mi.fn]
		if inferred == nil {
			continue
		}
		if mi.declResults {
			for r, t := range inferred.Results {
				if t && !mi.mask.Results[r] {
					pass.ReportPos(mi.comment.Pos(), "//twlint:bound-source on %s disagrees with inference: result %d also carries a lower bound; update results= or the callers will treat it as exact", mi.fn.Name(), r)
				}
			}
		}
		if mi.declParams {
			for p, t := range inferred.Params {
				if t && !mi.mask.Params[p] {
					pass.ReportPos(mi.comment.Pos(), "//twlint:bound-source on %s disagrees with inference: parameter %q also receives a lower bound at a call site; update params=", mi.fn.Name(), paramName(mi.fn, p))
				}
			}
		}
	}
}

// paramName returns the name of fn's parameter at index i.
func paramName(fn *types.Func, i int) string {
	params := fn.Type().(*types.Signature).Params()
	if i < 0 || i >= params.Len() {
		return "?"
	}
	return params.At(i).Name()
}

type boundsChecker struct {
	pass *Pass
	an   *pkgAnalysis
	dep  func(*types.Func) *FuncSummary
}

// sourceMask classifies a call as a lower-bound source, returning the
// tainted-result mask or nil. Package-local callees resolve through the
// fixpoint summaries; module-internal callees through their own packages'
// summaries, so cross-package flow needs no registry.
func (bc *boundsChecker) sourceMask(call *ast.CallExpr) []bool {
	fn := calleeFunc(bc.pass.Info, call)
	if fn == nil {
		return nil
	}
	if s, ok := bc.an.sums[fn]; ok {
		return s.Results
	}
	if d := bc.dep(fn); d != nil {
		return d.Results
	}
	return nil
}

// checkFuncNode analyzes one declared function, seeding the parameters the
// summary proved to receive bounds.
func (bc *boundsChecker) checkFuncNode(fnode *funcNode) {
	var seeds []types.Object
	if s := bc.an.sums[fnode.fn]; s != nil {
		for i, p := range fnode.params {
			if i < len(s.Params) && s.Params[i] && p != nil {
				seeds = append(seeds, p)
			}
		}
	}
	bc.checkFunc(bc.an.cg.graphOf(fnode), seeds)
}

// checkFunc runs the flow analysis over one function graph.
func (bc *boundsChecker) checkFunc(g *cfg.Graph, seeds []types.Object) {
	ta := &cfg.Taint{Info: bc.pass.Info, SourceCall: bc.sourceMask, Seed: seeds}
	facts := ta.Run(g)
	dom := g.Dominators()

	// Blocks reached only when an exact-flag condition held true.
	var exactTrue []*cfg.Block
	for _, b := range g.Blocks {
		if c := b.Cond(); c != nil && isExactFlag(c) {
			exactTrue = append(exactTrue, b.Succs[0])
		}
	}
	underExact := func(b *cfg.Block) bool {
		for _, t := range exactTrue {
			if dom.Dominates(t, b) {
				return true
			}
		}
		return false
	}

	for _, b := range g.Blocks {
		fact := facts[b.Index].Clone()
		for _, n := range b.Nodes {
			bc.checkNode(ta, fact, b, n, underExact)
			ta.Apply(fact, n)
		}
	}
}

// checkNode inspects one CFG node with the taint fact holding at its entry.
func (bc *boundsChecker) checkNode(ta *cfg.Taint, fact cfg.ObjSet, b *cfg.Block, n ast.Node, underExact func(*cfg.Block) bool) {
	root := n
	cfg.InspectNode(n, func(x ast.Node) bool {
		if _, ok := x.(*ast.FuncLit); ok && x != root {
			return false // literals are analyzed as their own functions
		}
		switch x := x.(type) {
		case *ast.BinaryExpr:
			bc.checkComparison(ta, fact, x)
		case *ast.KeyValueExpr:
			key, ok := x.Key.(*ast.Ident)
			if ok && key.Name == "Distance" && ta.ExprTainted(fact, x.Value) && !underExact(b) {
				bc.pass.Report(x, "lower-bound value published as an exact Match distance outside an exact-guarded path; route the candidate through post-processing (THEORY.md, Theorems 2-3)")
			}
		}
		return true
	})
}

// checkComparison enforces rule 1 on one comparison between a bound and
// the threshold.
func (bc *boundsChecker) checkComparison(ta *cfg.Taint, fact cfg.ObjSet, bin *ast.BinaryExpr) {
	switch bin.Op {
	case token.GTR, token.GEQ, token.LSS, token.LEQ, token.EQL, token.NEQ:
	default:
		return
	}
	xBound := ta.ExprTainted(fact, bin.X)
	yBound := ta.ExprTainted(fact, bin.Y)
	xEps := isEpsExpr(bin.X)
	yEps := isEpsExpr(bin.Y)

	var ok bool
	switch {
	case xBound && !yBound && yEps:
		// bound OP eps: keep on <=, prune on >.
		ok = bin.Op == token.GTR || bin.Op == token.LEQ
	case yBound && !xBound && xEps:
		// eps OP bound: the mirror — keep on >=, prune on <.
		ok = bin.Op == token.LSS || bin.Op == token.GEQ
	default:
		return
	}
	if !ok {
		bc.pass.Report(bin, "lower-bound value compared to the threshold with %s; Theorems 1-3 only justify pruning on bound > eps (keeping on bound <= eps) — %s here reintroduces false dismissals", bin.Op, bin.Op)
	}
}

// isExactFlag reports whether a condition leaf is an exactness flag: an
// identifier or field whose name contains "exact".
func isExactFlag(e ast.Expr) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return strings.Contains(strings.ToLower(e.Name), "exact")
	case *ast.SelectorExpr:
		return strings.Contains(strings.ToLower(e.Sel.Name), "exact")
	}
	return false
}

// isEpsExpr reports whether an expression denotes the search threshold: an
// identifier or field named eps/epsilon.
func isEpsExpr(e ast.Expr) bool {
	name := ""
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		name = e.Name
	case *ast.SelectorExpr:
		name = e.Sel.Name
	}
	name = strings.ToLower(name)
	return name == "eps" || name == "epsilon"
}
