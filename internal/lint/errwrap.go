package lint

import (
	"go/ast"
	"go/constant"
	"go/types"
	"strings"
)

// ErrWrap reports fmt.Errorf calls in library packages that format an
// underlying error without wrapping it. Errors cross package boundaries
// here — a corrupted index file surfaces as storage → disktree → core →
// seqdb — and callers match causes with errors.Is/errors.As (e.g.
// io.ErrUnexpectedEOF, sequence.ErrBadMagic). Formatting with %v or %s
// flattens the cause into text and breaks every such check, so an error
// operand must be rendered with %w (or the site must construct a typed or
// sentinel error instead).
var ErrWrap = &Analyzer{
	Name: "errwrap",
	Doc: "fmt.Errorf formats an error operand without %w, hiding the cause " +
		"from errors.Is/errors.As across package boundaries",
	Run: runErrWrap,
}

func runErrWrap(pass *Pass) {
	if !pass.Library {
		return
	}
	errType := types.Universe.Lookup("error").Type().Underlying().(*types.Interface)
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) < 2 {
				return true
			}
			callee := calleeFunc(pass.Info, call)
			if callee == nil || callee.Pkg() == nil ||
				callee.Pkg().Path() != "fmt" || callee.Name() != "Errorf" {
				return true
			}
			format, ok := constStringArg(pass.Info, call.Args[0])
			if !ok || strings.Contains(format, "%w") {
				return true
			}
			for _, arg := range call.Args[1:] {
				tv, ok := pass.Info.Types[arg]
				if !ok || tv.Type == nil {
					continue
				}
				if types.Implements(tv.Type, errType) {
					pass.Report(arg, "error formatted without %%w; callers cannot errors.Is/errors.As through this boundary")
					break
				}
			}
			return true
		})
	}
}

// constStringArg returns the compile-time string value of an expression.
func constStringArg(info *types.Info, e ast.Expr) (string, bool) {
	tv, ok := info.Types[e]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return "", false
	}
	return constant.StringVal(tv.Value), true
}
