package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// CtxFlow enforces context discipline one function body at a time.
// context.Background()/context.TODO() in library code is a re-root: a
// function that calls either must carry an audited marker in its doc
// comment —
//
//	//twlint:ctx-root <reason>
//
// — naming why a fresh root is correct (a public compatibility wrapper, a
// server-lifetime context). A function that already receives a ctx
// parameter can never justify one: cancellation it was handed would be
// silently dropped, marker or not.
//
// Markers are themselves checked: a reasonless, floating, or stale marker
// (on a function whose own body never re-roots), or one on a function with
// a ctx parameter, is a finding.
var CtxFlow = &Analyzer{
	Name: "ctxflow",
	Doc: "context.Background()/TODO() in library code drops the caller's " +
		"cancellation; thread ctx through, or audit the wrapper with " +
		"//twlint:ctx-root <reason>",
	Run: runCtxFlow,
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

// hasCtxParam reports whether the signature receives a context.Context.
func hasCtxParam(sig *types.Signature) bool {
	params := sig.Params()
	for i := 0; i < params.Len(); i++ {
		if params.At(i).Type().String() == "context.Context" {
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
	attached := make(map[*ast.Comment]bool)
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, _ := pass.Info.Defs[fd.Name].(*types.Func)
			if fn == nil {
				continue
			}
			if c := checkCtxFunc(pass, fd, hasCtxParam(fn.Type().(*types.Signature))); c != nil {
				attached[c] = true
			}
		}
	}
	for _, file := range pass.Files {
		for _, group := range file.Comments {
			for _, c := range group.List {
				if strings.HasPrefix(c.Text, "//twlint:ctx-root") && !attached[c] {
					pass.ReportPos(c.Pos(), "stale //twlint:ctx-root: the directive is not the doc comment of a function declaration, so it audits nothing; move it onto the wrapper or delete it")
				}
			}
		}
	}
}

// checkCtxFunc checks one function body's re-roots against its marker, and
// the marker against the body, and returns the marker, if any.
func checkCtxFunc(pass *Pass, fd *ast.FuncDecl, hasCtx bool) *ast.Comment {
	name := fd.Name.Name
	c, reason := ctxRootComment(fd.Doc)
	reRoots := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if !isBackgroundCall(pass.Info, n) {
			return true
		}
		reRoots = true
		root := calleeFunc(pass.Info, n.(*ast.CallExpr)).Name()
		switch {
		case hasCtx:
			pass.Report(n, "%s re-roots with context.%s despite receiving a context parameter; derive from the parameter so cancellation reaches this call", name, root)
		case c == nil:
			pass.Report(n, "context.%s() roots a fresh context in library code; thread a context parameter through, or audit the wrapper with //twlint:ctx-root <reason>", root)
		}
		return true
	})
	if c == nil {
		return nil
	}
	if reason == "" {
		pass.ReportPos(c.Pos(), "twlint:ctx-root needs a reason naming why a fresh root context is correct here")
	}
	if hasCtx {
		pass.ReportPos(c.Pos(), "//twlint:ctx-root on %s, which receives a context parameter; derive from the parameter instead of re-rooting, and delete the marker", name)
	}
	if !reRoots {
		pass.ReportPos(c.Pos(), "stale //twlint:ctx-root: %s never calls context.Background or context.TODO, so there is no root to audit; delete the marker", name)
	}
	return c
}
