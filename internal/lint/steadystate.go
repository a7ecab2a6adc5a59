package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// SteadyState enforces PR 4's allocation contract statically. A function
// marked
//
//	//twlint:steady-state [reason]
//
// is on the pooled per-query path — the AddRow* kernels, the found list's
// ops, the visitor plumbing — where TestSearchAllocationSteadyState pins
// ~0 bytes/query after warmup. Such a body may not contain:
//
//   - make/new calls or slice/map/chan composite literals
//   - address-taken composite literals (&T{} escapes to the heap)
//   - append calls (a growing append reallocates the backing array)
//   - function literals that capture enclosing variables (a capturing
//     closure allocates per call)
//   - interface-boxing call sites (a concrete value passed to an interface
//     parameter allocates)
//
// Warmup-phase allocation that a growth guard bounds — the found list's
// doubling toward its high-water mark, for instance — is audited in place with
// //lint:ignore steadystate <reason>, so each amortization argument is
// written down where it holds. A floating marker not attached to a
// function declaration is itself a finding, like ctx-root.
var SteadyState = &Analyzer{
	Name: "steadystate",
	Doc: "a //twlint:steady-state function allocates: make/new, composite " +
		"literal escape, growing append, capturing closure, or interface " +
		"boxing; hoist into the pooled query context or audit the warmup " +
		"with //lint:ignore steadystate",
	Run: runSteadyState,
}

// steadyStateComment returns the //twlint:steady-state line of a doc
// comment, or nil.
func steadyStateComment(doc *ast.CommentGroup) *ast.Comment {
	if doc == nil {
		return nil
	}
	for _, cm := range doc.List {
		if strings.HasPrefix(cm.Text, "//twlint:steady-state") {
			return cm
		}
	}
	return nil
}

func runSteadyState(pass *Pass) {
	if !pass.Library {
		return
	}
	attached := make(map[*ast.Comment]bool)
	var markedDecls []*ast.FuncDecl
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			c := steadyStateComment(fd.Doc)
			if c == nil {
				continue
			}
			attached[c] = true
			if fd.Body == nil {
				continue
			}
			markedDecls = append(markedDecls, fd)
		}
	}
	for _, file := range pass.Files {
		for _, group := range file.Comments {
			for _, c := range group.List {
				if strings.HasPrefix(c.Text, "//twlint:steady-state") && !attached[c] {
					pass.ReportPos(c.Pos(), "stale //twlint:steady-state: the directive is not the doc comment of a function declaration, so it pins nothing; move it onto the kernel or delete it")
				}
			}
		}
	}
	for _, fd := range markedDecls {
		checkSteadyState(pass, fd)
	}
}

// checkSteadyState walks one marked body and reports every allocation site.
func checkSteadyState(pass *Pass, fd *ast.FuncDecl) {
	name := fd.Name.Name
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if _, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
					pass.Report(n, "steady-state %s heap-allocates an address-taken composite literal; acquire the value from the pool or hoist it into the query context", name)
				}
			}
		case *ast.CompositeLit:
			if t := pass.Info.TypeOf(n); t != nil {
				switch t.Underlying().(type) {
				case *types.Slice, *types.Map, *types.Chan:
					pass.Report(n, "steady-state %s allocates a %s literal per call; preallocate it in the pool warmup", name, compositeKind(t))
				}
			}
		case *ast.FuncLit:
			if caps := capturedVars(pass, fd, n); len(caps) > 0 {
				pass.Report(n, "steady-state %s builds a closure capturing %s, allocating per call; hoist the literal to a method or pass the state explicitly", name, strings.Join(caps, ", "))
			}
		case *ast.CallExpr:
			checkSteadyCall(pass, name, n)
		}
		return true
	})
}

// compositeKind names the allocating literal kind for the report.
func compositeKind(t types.Type) string {
	switch t.Underlying().(type) {
	case *types.Slice:
		return "slice"
	case *types.Map:
		return "map"
	case *types.Chan:
		return "channel"
	}
	return "composite"
}

// checkSteadyCall reports allocating calls: make/new/append builtins and
// interface-boxing argument passing.
func checkSteadyCall(pass *Pass, name string, call *ast.CallExpr) {
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if _, builtin := pass.Info.Uses[id].(*types.Builtin); builtin {
			switch id.Name {
			case "make", "new":
				pass.Report(call, "steady-state %s calls %s, allocating per call; move the allocation into the pool warmup", name, id.Name)
			case "append":
				pass.Report(call, "steady-state %s appends, which may grow the backing array; preallocate capacity in the warmup or audit the amortization with //lint:ignore steadystate", name)
			}
			return
		}
	}
	fn := calleeFunc(pass.Info, call)
	if fn == nil {
		return // dynamic call
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return
	}
	for i, arg := range call.Args {
		j := paramIndex(sig, i)
		if j < 0 {
			continue
		}
		ptype := sig.Params().At(j).Type()
		if sig.Variadic() && j == sig.Params().Len()-1 {
			if s, ok := ptype.Underlying().(*types.Slice); ok && !call.Ellipsis.IsValid() {
				ptype = s.Elem()
			}
		}
		if !types.IsInterface(ptype.Underlying()) {
			continue
		}
		if _, tp := ptype.(*types.TypeParam); tp {
			continue // generic instantiation, not boxing
		}
		at := pass.Info.TypeOf(arg)
		if at == nil || types.IsInterface(at.Underlying()) {
			continue
		}
		if basic, ok := at.Underlying().(*types.Basic); ok && basic.Kind() == types.UntypedNil {
			continue
		}
		pass.Report(arg, "steady-state %s boxes a concrete %s into interface parameter %q of %s, allocating per call; take a concrete type", name, at.String(), sig.Params().At(j).Name(), fn.Name())
	}
}

// capturedVars lists the enclosing local variables a function literal
// captures: identifiers resolving to objects declared inside the enclosing
// function but outside the literal (parameters and receivers included).
func capturedVars(pass *Pass, fd *ast.FuncDecl, lit *ast.FuncLit) []string {
	var out []string
	seen := make(map[types.Object]bool)
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj, ok := pass.Info.Uses[id].(*types.Var)
		if !ok || seen[obj] || obj.IsField() {
			return true
		}
		if obj.Pos() < fd.Pos() || obj.Pos() > fd.End() {
			return true // package-level or foreign: no closure cell
		}
		if lit.Pos() <= obj.Pos() && obj.Pos() <= lit.End() {
			return true // the literal's own local or parameter
		}
		seen[obj] = true
		out = append(out, obj.Name())
		return true
	})
	return out
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
