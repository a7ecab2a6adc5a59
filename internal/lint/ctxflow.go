package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// CtxFlow enforces context discipline along request paths, with
// interprocedural reachability. Request-path roots are functions that
// receive a context.Context parameter, plus the handle*/serve* methods of a
// package named server; membership closes over package-local static calls,
// and re-rooting flows across packages through per-function context
// summaries (see pkgAnalysis).
//
// Three rules follow:
//
//  1. context.Background()/context.TODO() in library code is a re-root: a
//     function that calls either must carry an audited marker in its doc
//     comment —
//
//     //twlint:ctx-root <reason>
//
//     — naming why a fresh root is correct (a public compatibility wrapper,
//     a server-lifetime context). A function that already receives a ctx
//     parameter can never justify one: cancellation it was handed would be
//     silently dropped, marker or not.
//
//  2. A request-path function must not call a re-rooter: a callee without a
//     ctx parameter whose summary shows Background/TODO beneath it discards
//     the caller's deadline, marker or not — the marker audits the wrapper's
//     existence for outside callers, not its use on a request path. Call the
//     ctx-taking form instead.
//
//  3. A condition-less `for {}` loop on a request path must poll for
//     cancellation each iteration: touch the context (ctx.Err(), ctx.Done(),
//     passing ctx to a callee), select/receive on a channel, or call a
//     helper whose summary touches a context (the masked-counter
//     checkCancel idiom). `for range ch` needs no poll — it ends when the
//     channel closes.
//
// Markers are themselves checked: a reasonless, floating, or stale marker
// (on a function that never re-roots), or one on a function with a ctx
// parameter, is a finding.
var CtxFlow = &Analyzer{
	Name: "ctxflow",
	Doc: "request-path context discipline: context.Background()/TODO() " +
		"re-roots and poll-free unbounded loops drop cancellation; thread ctx " +
		"through the ctx-taking form or audit the wrapper with //twlint:ctx-root <reason>",
	Run: runCtxFlow,
}

// ctxSummary is the interprocedural context-flow summary of one function.
type ctxSummary struct {
	// reRoots: a context.Background()/TODO() call somewhere beneath it.
	reRoots bool
	// direct: the re-root is in this very body (not via a callee).
	direct bool
	// polls: the function touches a context or receives from a channel
	// somewhere beneath it, so calling it inside a loop is a poll.
	polls bool
}

// pkgAnalysis caches one package's interprocedural artifacts: the call
// graph and the context-flow summaries ctxflow resolves cross-package calls
// through.
type pkgAnalysis struct {
	cg  *callGraph
	ctx map[*types.Func]*ctxSummary
}

// analysisFor computes (and caches) a package's call graph and context-flow
// summaries. Cross-package callees resolve through the loader cache: every
// module-internal import was loaded (with full ASTs) while type-checking,
// and module imports are acyclic, so the recursion terminates.
func (l *Loader) analysisFor(pkg *Package) *pkgAnalysis {
	if a, ok := l.analyses[pkg.Path]; ok {
		return a
	}
	a := &pkgAnalysis{cg: buildCallGraph(pkg.Fset, pkg.Files, pkg.Info)}
	a.ctx = computeCtxSummaries(a.cg, l.ctxDepResolver(pkg))
	l.analyses[pkg.Path] = a
	return a
}

// ctxDepResolver resolves a function of another module package to its
// ctxSummary, or nil for stdlib and unresolved callees.
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

// computeCtxSummaries runs the context-flow fixpoint over one package's
// call graph; dep resolves callees of other module packages through their
// own (already computed) summaries. The lattice is two bits per function
// and transfer is monotone, so the fixpoint terminates.
func computeCtxSummaries(cg *callGraph, dep func(*types.Func) *ctxSummary) map[*types.Func]*ctxSummary {
	sums := make(map[*types.Func]*ctxSummary, len(cg.funcs))
	for _, fnode := range cg.order {
		s := &ctxSummary{}
		ast.Inspect(fnode.decl.Body, func(n ast.Node) bool {
			if isBackgroundCall(cg.info, n) {
				s.reRoots = true
				s.direct = true
			}
			if isDirectPoll(cg.info, n) {
				s.polls = true
			}
			return true
		})
		sums[fnode.fn] = s
	}
	for changed := true; changed; {
		changed = false
		for _, fnode := range cg.order {
			s := sums[fnode.fn]
			if s.reRoots && s.polls {
				continue
			}
			ast.Inspect(fnode.decl.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				fn := calleeFunc(cg.info, call)
				if fn == nil {
					return true
				}
				cs, ok := sums[fn]
				if !ok {
					cs = dep(fn)
				}
				if cs == nil {
					return true
				}
				if cs.reRoots && !s.reRoots {
					s.reRoots = true
					changed = true
				}
				if cs.polls && !s.polls {
					s.polls = true
					changed = true
				}
				return true
			})
		}
	}
	return sums
}

// isBackgroundCall reports whether the node is a context.Background() or
// context.TODO() call.
func isBackgroundCall(info *types.Info, n ast.Node) bool {
	call, ok := n.(*ast.CallExpr)
	if !ok {
		return false
	}
	fn := calleeFunc(info, call)
	return fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "context" &&
		(fn.Name() == "Background" || fn.Name() == "TODO")
}

// isCtxType reports whether t is context.Context.
func isCtxType(t types.Type) bool {
	return t != nil && t.String() == "context.Context"
}

// isDirectPoll reports whether the node itself counts as a cancellation
// poll: a use of a context-typed value, a select statement, or a channel
// receive.
func isDirectPoll(info *types.Info, n ast.Node) bool {
	switch n := n.(type) {
	case *ast.Ident:
		return isCtxType(info.TypeOf(n))
	case *ast.SelectorExpr:
		return isCtxType(info.TypeOf(n))
	case *ast.SelectStmt:
		return true
	case *ast.UnaryExpr:
		return n.Op == token.ARROW
	}
	return false
}

// hasCtxParam reports whether the signature receives a context.Context.
func hasCtxParam(sig *types.Signature) bool {
	params := sig.Params()
	for i := 0; i < params.Len(); i++ {
		if isCtxType(params.At(i).Type()) {
			return true
		}
	}
	return false
}

// ctxRootComment returns the //twlint:ctx-root line of a doc comment and
// its reason text.
func ctxRootComment(doc *ast.CommentGroup) (c *ast.Comment, reason string) {
	if doc == nil {
		return nil, ""
	}
	for _, cm := range doc.List {
		if rest, ok := strings.CutPrefix(cm.Text, "//twlint:ctx-root"); ok {
			return cm, strings.TrimSpace(rest)
		}
	}
	return nil, ""
}

func runCtxFlow(pass *Pass) {
	if !pass.Library {
		return
	}
	an := pass.analysis()
	if an == nil {
		return
	}
	dep := pass.src.loader.ctxDepResolver(pass.src)

	// Marker collection and hygiene. A marker is an audited assertion:
	// reasonless, floating, stale, or contradicted markers are findings.
	marked := make(map[*types.Func]bool)
	attached := make(map[*ast.Comment]bool)
	for _, fnode := range an.cg.order {
		c, reason := ctxRootComment(fnode.decl.Doc)
		if c == nil {
			continue
		}
		attached[c] = true
		if reason == "" {
			pass.ReportPos(c.Pos(), "twlint:ctx-root needs a reason naming why a fresh root context is correct here")
		}
		if hasCtxParam(fnode.sig) {
			pass.ReportPos(c.Pos(), "//twlint:ctx-root on %s, which receives a context parameter; derive from the parameter instead of re-rooting, and delete the marker", fnode.fn.Name())
		}
		if s := an.ctx[fnode.fn]; s == nil || !s.direct {
			pass.ReportPos(c.Pos(), "stale //twlint:ctx-root: %s never calls context.Background or context.TODO, so there is no root to audit; delete the marker", fnode.fn.Name())
		}
		marked[fnode.fn] = true
	}
	for _, file := range pass.Files {
		if isTestFile(pass.Fset.Position(file.Pos())) {
			continue
		}
		for _, group := range file.Comments {
			for _, c := range group.List {
				if strings.HasPrefix(c.Text, "//twlint:ctx-root") && !attached[c] {
					pass.ReportPos(c.Pos(), "stale //twlint:ctx-root: the directive is not the doc comment of a function declaration, so it audits nothing; move it onto the wrapper or delete it")
				}
			}
		}
	}

	// Request-path membership: ctx-receiving functions and server handlers,
	// closed over package-local static calls.
	req := make(map[*types.Func]bool)
	for _, fnode := range an.cg.order {
		if hasCtxParam(fnode.sig) || isServerRoot(pass, fnode) {
			req[fnode.fn] = true
		}
	}
	for changed := true; changed; {
		changed = false
		for _, fnode := range an.cg.order {
			if !req[fnode.fn] {
				continue
			}
			ast.Inspect(fnode.decl.Body, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok {
					if c := an.cg.callee(call); c != nil && !req[c.fn] {
						req[c.fn] = true
						changed = true
					}
				}
				return true
			})
		}
	}

	for _, fnode := range an.cg.order {
		checkCtxFunc(pass, an, dep, fnode, req[fnode.fn], marked[fnode.fn])
	}
}

// isServerRoot reports whether the function is a request entry point by
// convention: a handle*/serve* function of a package named server. The
// case-sensitive prefix deliberately excludes exported lifecycle methods
// like Serve, whose accept loop outlives any single request.
func isServerRoot(pass *Pass, fnode *funcNode) bool {
	if pass.Pkg.Name() != "server" {
		return false
	}
	name := fnode.fn.Name()
	return strings.HasPrefix(name, "handle") || strings.HasPrefix(name, "serve")
}

// checkCtxFunc applies the three rules to one function body.
func checkCtxFunc(pass *Pass, an *pkgAnalysis, dep func(*types.Func) *ctxSummary, fnode *funcNode, onReqPath, isMarked bool) {
	hasCtx := hasCtxParam(fnode.sig)
	ast.Inspect(fnode.decl.Body, func(n ast.Node) bool {
		// Rule 1: direct re-roots need an audited marker, and a function
		// that receives a ctx can never justify one.
		if isBackgroundCall(pass.Info, n) {
			name := calleeFunc(pass.Info, n.(*ast.CallExpr)).Name()
			switch {
			case hasCtx:
				pass.Report(n, "%s re-roots with context.%s despite receiving a context parameter; derive from the parameter so cancellation reaches this call", fnode.fn.Name(), name)
			case !isMarked:
				pass.Report(n, "context.%s() roots a fresh context in library code; thread a context parameter through, or audit the wrapper with //twlint:ctx-root <reason>", name)
			}
			return true
		}

		// Rule 2: a request path must not call a re-rooter.
		if call, ok := n.(*ast.CallExpr); ok && onReqPath {
			if fn := calleeFunc(pass.Info, call); fn != nil && !sigHasCtx(fn) {
				cs, local := an.ctx[fn]
				if !local {
					cs = dep(fn)
				}
				// A local, unmarked, directly re-rooting callee already gets
				// its own rule-1 finding at the root; repeat only audited or
				// transitive re-rooters, where the call site is the bug.
				if cs != nil && cs.reRoots && !(local && cs.direct && !ctxMarkedDecl(an, fn)) {
					pass.Report(call, "request path calls %s, which re-roots the context beneath it; call the ctx-taking form or thread ctx through so cancellation propagates", fn.Name())
				}
			}
		}

		// Rule 3: unbounded loops on a request path must poll.
		if loop, ok := n.(*ast.ForStmt); ok && onReqPath && loop.Cond == nil {
			if !loopPollsCancel(pass, an, dep, loop) {
				pass.Report(loop, "unbounded for-loop on a request path never polls for cancellation; check the context (ctx.Err()/ctx.Done()) or receive on a done channel each iteration")
			}
		}
		return true
	})
}

// sigHasCtx reports whether the function's signature has a ctx parameter.
func sigHasCtx(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	return ok && hasCtxParam(sig)
}

// ctxMarkedDecl reports whether the package-local function carries a
// //twlint:ctx-root marker.
func ctxMarkedDecl(an *pkgAnalysis, fn *types.Func) bool {
	node := an.cg.funcs[fn]
	if node == nil {
		return false
	}
	c, _ := ctxRootComment(node.decl.Doc)
	return c != nil
}

// loopPollsCancel reports whether a loop body polls for cancellation: a
// direct context/channel touch, or a call to a function whose summary
// touches one. Function literals inside the body run on their own
// goroutine's schedule and do not gate this loop.
func loopPollsCancel(pass *Pass, an *pkgAnalysis, dep func(*types.Func) *ctxSummary, loop *ast.ForStmt) bool {
	polls := false
	ast.Inspect(loop.Body, func(n ast.Node) bool {
		if polls {
			return false
		}
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if isDirectPoll(pass.Info, n) {
			polls = true
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok {
			if fn := calleeFunc(pass.Info, call); fn != nil {
				cs, ok := an.ctx[fn]
				if !ok {
					cs = dep(fn)
				}
				if cs != nil && cs.polls {
					polls = true
					return false
				}
			}
		}
		return true
	})
	return polls
}
