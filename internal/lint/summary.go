package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
	"strings"

	"twsearch/internal/lint/cfg"
)

// FuncSummary is the interprocedural bound-taint summary of one function:
// which of its results are lower bounds (they taint the caller's values)
// and which of its parameters receive lower bounds at some call site (they
// seed the taint analysis of the body). Summaries are computed by fixpoint
// over the package's call graph — see computeSummaries — with
// //twlint:bound-source markers as extra seeds at package boundaries.
type FuncSummary struct {
	Results []bool
	Params  []bool
}

// covers reports whether s taints at least every position m does.
func (s *FuncSummary) covers(m *FuncSummary) bool {
	for i, t := range m.Results {
		if t && (i >= len(s.Results) || !s.Results[i]) {
			return false
		}
	}
	for i, t := range m.Params {
		if t && (i >= len(s.Params) || !s.Params[i]) {
			return false
		}
	}
	return true
}

// markerInfo is one //twlint:bound-source directive resolved against the
// function or interface method it documents. The raw declaration is kept
// alongside the mask so the checker can verify the marker as an assertion:
// out-of-range indices, unknown parameter names, redundancy and
// understatement all become findings.
type markerInfo struct {
	fn      *types.Func
	comment *ast.Comment
	mask    *FuncSummary // only in-range results and resolvable params

	declResults bool     // marker had a results= field
	declParams  bool     // marker had a params= field
	badResults  []string // results= entries that are not valid result indices
	badParams   []string // params= entries naming no parameter
}

// boundSourceComment returns the //twlint:bound-source line of a doc
// comment, or nil.
func boundSourceComment(doc *ast.CommentGroup) *ast.Comment {
	if doc == nil {
		return nil
	}
	for _, c := range doc.List {
		if strings.HasPrefix(c.Text, "//twlint:bound-source") {
			return c
		}
	}
	return nil
}

// collectBoundMarkers parses every //twlint:bound-source directive attached
// to a function declaration or to a method of an interface type declared in
// the package's non-test files. A marked interface method is a bodyless
// producer: calls through the interface resolve to it, so a bound born
// behind the interface (a row kernel's AddRow) taints the caller's values
// exactly as a direct call to the concrete producer would.
func collectBoundMarkers(fset *token.FileSet, files []*ast.File, info *types.Info) []markerInfo {
	var out []markerInfo
	add := func(doc *ast.CommentGroup, name *ast.Ident, ftype *ast.FuncType) {
		c := boundSourceComment(doc)
		if c == nil {
			return
		}
		if mi, ok := parseBoundMarker(info, c, name, ftype); ok {
			out = append(out, mi)
		}
	}
	for _, file := range files {
		if isTestFile(fset.Position(file.Pos())) {
			continue
		}
		for _, decl := range file.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok {
				add(fd.Doc, fd.Name, fd.Type)
			}
		}
		ast.Inspect(file, func(n ast.Node) bool {
			it, ok := n.(*ast.InterfaceType)
			if !ok {
				return true
			}
			for _, m := range it.Methods.List {
				if ftype, ok := m.Type.(*ast.FuncType); ok && len(m.Names) == 1 {
					add(m.Doc, m.Names[0], ftype)
				}
			}
			return true
		})
	}
	return out
}

// parseBoundMarker resolves one directive against the function or interface
// method it documents; ok is false when the name has no function object.
func parseBoundMarker(info *types.Info, c *ast.Comment, name *ast.Ident, ftype *ast.FuncType) (mi markerInfo, ok bool) {
	mi = markerInfo{comment: c}
	mi.fn, _ = info.Defs[name].(*types.Func)
	if mi.fn == nil {
		return mi, false
	}
	sig := mi.fn.Type().(*types.Signature)
	mi.mask = &FuncSummary{
		Results: make([]bool, sig.Results().Len()),
		Params:  make([]bool, sig.Params().Len()),
	}
	rest := strings.TrimPrefix(c.Text, "//twlint:bound-source")
	for _, field := range strings.Fields(rest) {
		if v, ok := strings.CutPrefix(field, "results="); ok {
			mi.declResults = true
			for _, s := range strings.Split(v, ",") {
				i, err := strconv.Atoi(s)
				if err != nil || i < 0 || i >= len(mi.mask.Results) {
					mi.badResults = append(mi.badResults, s)
					continue
				}
				mi.mask.Results[i] = true
			}
		}
		if v, ok := strings.CutPrefix(field, "params="); ok {
			mi.declParams = true
			for _, name := range strings.Split(v, ",") {
				idx := -1
				for i, p := range fieldObjs(info, ftype.Params) {
					if p != nil && p.Name() == name {
						idx = i
					}
				}
				if idx < 0 {
					mi.badParams = append(mi.badParams, name)
					continue
				}
				mi.mask.Params[idx] = true
			}
		}
	}
	return mi, true
}

// markerMasks merges the marker declarations into per-function seed masks,
// optionally leaving one marker out (for the redundancy check).
func markerMasks(markers []markerInfo, except *markerInfo) map[*types.Func]*FuncSummary {
	out := make(map[*types.Func]*FuncSummary, len(markers))
	for i := range markers {
		mi := &markers[i]
		if mi == except || mi.fn == nil || mi.mask == nil {
			continue
		}
		out[mi.fn] = mi.mask
	}
	return out
}

// computeSummaries runs the bound-taint fixpoint over one package's call
// graph. Marker masks seed the lattice; dep resolves calls into other
// (already summarized) module packages. Both directions flow: a function
// returning a source's value gets a tainted result, and a call passing a
// tainted value marks the callee's parameter, which re-seeds the callee's
// body on the next round. The lattice is finite (one bit per result and
// parameter) and transfer is monotone, so the fixpoint terminates.
//
// Closure bodies do not contribute: a function literal is a separate flow,
// analyzed on its own with no seeds (matching boundscontract), so taint
// neither escapes into captured variables nor returns through the literal.
func computeSummaries(cg *callGraph, markers map[*types.Func]*FuncSummary, dep func(*types.Func) *FuncSummary) map[*types.Func]*FuncSummary {
	sums := make(map[*types.Func]*FuncSummary, len(cg.funcs)+len(markers))
	get := func(fn *types.Func) *FuncSummary {
		s := sums[fn]
		if s == nil {
			sig := fn.Type().(*types.Signature)
			s = &FuncSummary{
				Results: make([]bool, sig.Results().Len()),
				Params:  make([]bool, sig.Params().Len()),
			}
			sums[fn] = s
		}
		return s
	}
	for _, fnode := range cg.order {
		get(fnode.fn)
	}
	// Bodyless marked functions (declarations without Go bodies) still get
	// an entry so their callers see the declared mask.
	for fn, m := range markers {
		s := get(fn)
		orInto(s.Results, m.Results)
		orInto(s.Params, m.Params)
	}

	lookup := func(call *ast.CallExpr) []bool {
		fn := calleeFunc(cg.info, call)
		if fn == nil {
			return nil
		}
		if s, ok := sums[fn]; ok {
			return s.Results
		}
		if d := dep(fn); d != nil {
			return d.Results
		}
		return nil
	}
	for changed := true; changed; {
		changed = false
		for _, fnode := range cg.order {
			if summarizeFunc(cg, fnode, sums, lookup) {
				changed = true
			}
		}
	}
	return sums
}

// summarizeFunc runs one taint pass over a function body and grows its own
// result mask and its callees' parameter masks. Reports whether any mask
// bit was added.
func summarizeFunc(cg *callGraph, fnode *funcNode, sums map[*types.Func]*FuncSummary, lookup func(*ast.CallExpr) []bool) bool {
	self := sums[fnode.fn]
	var seeds []types.Object
	for i, p := range fnode.params {
		if i < len(self.Params) && self.Params[i] && p != nil {
			seeds = append(seeds, p)
		}
	}
	g := cg.graphOf(fnode)
	ta := &cfg.Taint{Info: cg.info, SourceCall: lookup, Seed: seeds}
	facts := ta.Run(g)

	changed := false
	for _, b := range g.Blocks {
		fact := facts[b.Index].Clone()
		for _, n := range b.Nodes {
			if ret, ok := n.(*ast.ReturnStmt); ok {
				if markReturn(ta, fact, fnode, ret, self) {
					changed = true
				}
			}
			if propagateArgs(cg, ta, fact, n, sums) {
				changed = true
			}
			ta.Apply(fact, n)
		}
	}
	return changed
}

// markReturn folds one return statement into the function's result mask.
func markReturn(ta *cfg.Taint, fact cfg.ObjSet, fnode *funcNode, ret *ast.ReturnStmt, self *FuncSummary) bool {
	changed := false
	set := func(i int, tainted bool) {
		if tainted && i >= 0 && i < len(self.Results) && !self.Results[i] {
			self.Results[i] = true
			changed = true
		}
	}
	switch {
	case len(ret.Results) == 0:
		// Bare return: named results hold whatever was assigned to them.
		for i, r := range fnode.results {
			if r != nil {
				set(i, fact[r])
			}
		}
	case len(ret.Results) == len(self.Results):
		for i, e := range ret.Results {
			set(i, ta.ExprTainted(fact, e))
		}
	case len(ret.Results) == 1:
		// return f(): a multi-result passthrough keeps the callee's mask.
		if call, ok := ast.Unparen(ret.Results[0]).(*ast.CallExpr); ok && ta.SourceCall != nil {
			for i, t := range ta.SourceCall(call) {
				set(i, t)
			}
		}
	}
	return changed
}

// propagateArgs grows callee parameter masks from tainted arguments at the
// call sites inside one CFG node. Function literals inside the node are
// skipped: their calls run on another flow.
func propagateArgs(cg *callGraph, ta *cfg.Taint, fact cfg.ObjSet, n ast.Node, sums map[*types.Func]*FuncSummary) bool {
	changed := false
	root := n
	cfg.InspectNode(n, func(x ast.Node) bool {
		if _, ok := x.(*ast.FuncLit); ok && x != root {
			return false
		}
		call, ok := x.(*ast.CallExpr)
		if !ok {
			return true
		}
		callee := cg.callee(call)
		if callee == nil {
			return true
		}
		target := sums[callee.fn]
		for i, arg := range call.Args {
			j := paramIndex(callee.sig, i)
			if j < 0 || j >= len(target.Params) || target.Params[j] {
				continue
			}
			if ta.ExprTainted(fact, arg) {
				target.Params[j] = true
				changed = true
			}
		}
		return true
	})
	return changed
}

// orInto sets dst[i] for every set src[i].
func orInto(dst, src []bool) {
	for i, t := range src {
		if t && i < len(dst) {
			dst[i] = true
		}
	}
}

// pkgAnalysis caches one package's interprocedural artifacts: the call
// graph, the parsed bound-source markers, the full-fixpoint bound-taint
// summaries (markers included as seeds), and the context-flow summaries
// ctxflow resolves cross-package calls through.
type pkgAnalysis struct {
	cg      *callGraph
	markers []markerInfo
	sums    map[*types.Func]*FuncSummary
	ctx     map[*types.Func]*ctxSummary
}

// analysisFor computes (and caches) a package's call graph and bound-taint
// summaries. Cross-package callees resolve through the loader cache: every
// module-internal import was loaded (with full ASTs) while type-checking,
// and module imports are acyclic, so the recursion terminates.
func (l *Loader) analysisFor(pkg *Package) *pkgAnalysis {
	if a, ok := l.analyses[pkg.Path]; ok {
		return a
	}
	a := &pkgAnalysis{
		cg:      buildCallGraph(pkg.Fset, pkg.Files, pkg.Info),
		markers: collectBoundMarkers(pkg.Fset, pkg.Files, pkg.Info),
	}
	a.sums = computeSummaries(a.cg, markerMasks(a.markers, nil), l.depResolver(pkg))
	a.ctx = computeCtxSummaries(a.cg, l.ctxDepResolver(pkg))
	l.analyses[pkg.Path] = a
	return a
}

// depResolver returns the cross-package summary lookup for analyses of pkg.
func (l *Loader) depResolver(pkg *Package) func(*types.Func) *FuncSummary {
	return func(fn *types.Func) *FuncSummary {
		tp := fn.Pkg()
		if tp == nil || tp.Path() == pkg.Path {
			return nil
		}
		dpkg := l.cache[tp.Path()]
		if dpkg == nil {
			return nil
		}
		return l.analysisFor(dpkg).sums[fn]
	}
}

// ctxDepResolver is depResolver's context-flow twin: it resolves a function
// of another module package to its ctxSummary, or nil for stdlib and
// unresolved callees.
func (l *Loader) ctxDepResolver(pkg *Package) func(*types.Func) *ctxSummary {
	return func(fn *types.Func) *ctxSummary {
		tp := fn.Pkg()
		if tp == nil || tp.Path() == pkg.Path {
			return nil
		}
		dpkg := l.cache[tp.Path()]
		if dpkg == nil {
			return nil
		}
		return l.analysisFor(dpkg).ctx[fn]
	}
}
