// Package lint is twsearch's project-specific static-analysis suite. It is
// built purely on the standard library (go/ast, go/parser, go/types,
// go/token) so the module stays dependency-free, and it encodes invariants
// that generic tooling cannot know about: careful error propagation, no
// panic on a library path, locks and goroutines released on every exit, no
// unaudited fresh root context, and an allocation-free per-query path. Each
// check is kept only for a mutation of real code that the tests miss; the
// search's no-false-dismissal contract is held by the tests themselves
// (answers against the sequential scan, ties at eps included).
//
// The driver (cmd/twlint) loads every package in the module, type-checks it,
// and runs each registered Analyzer. Findings print as
//
//	file:line: [check-name] message
//
// and any finding makes the run exit non-zero. An audited exception is
// annotated at the offending line (or the line above it) with
//
//	//lint:ignore check-name reason
//
// where the reason is mandatory — an ignore without a written-down invariant
// is itself reported.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Finding is one analyzer report, anchored to a source position.
type Finding struct {
	Pos     token.Position
	Check   string
	Message string
}

// String renders the canonical file:line: [check] message form. The file
// path is printed as stored; the driver rewrites it relative to the working
// directory before printing.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d: [%s] %s", f.Pos.Filename, f.Pos.Line, f.Check, f.Message)
}

// Analyzer is one pluggable check.
type Analyzer struct {
	// Name is the check name used in reports and ignore directives.
	Name string
	// Doc is a one-paragraph description for `twlint -help`.
	Doc string
	// Run inspects one package and reports findings through pass.Report.
	Run func(pass *Pass)
}

// Pass hands one type-checked package to an analyzer.
type Pass struct {
	Fset *token.FileSet
	// Files holds the parsed non-test source files of the package (the
	// loader never parses a _test.go file).
	Files []*ast.File
	// Pkg is the type-checked package object.
	Pkg *types.Package
	// Info carries the use/def/type maps produced by the checker.
	Info *types.Info
	// Path is the import path of the package within the module
	// (e.g. "twsearch/internal/dtw").
	Path string
	// Library reports whether the package is part of the library surface
	// (internal/* or seqdb) as opposed to a command or example binary.
	Library bool

	check    string
	findings *[]Finding
}

// Report records a finding at the given node's position.
func (p *Pass) Report(n ast.Node, format string, args ...any) {
	p.ReportPos(n.Pos(), format, args...)
}

// ReportPos records a finding at an explicit position.
func (p *Pass) ReportPos(pos token.Pos, format string, args ...any) {
	*p.findings = append(*p.findings, Finding{
		Pos:     p.Fset.Position(pos),
		Check:   p.check,
		Message: fmt.Sprintf(format, args...),
	})
}

// Analyzers returns the full suite in reporting order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		PanicPath,
		ErrWrap,
		LockBalance,
		GoLeak,
		DeferInLoop,
		CtxFlow,
		SteadyState,
	}
}

// RunPackage runs the given analyzers over one loaded package and returns
// the findings that survive ignore-directive filtering, plus findings about
// malformed or stale directives themselves. The result is sorted by
// position, check and message, so the finding stream is byte-deterministic.
func RunPackage(pkg *Package, analyzers []*Analyzer) []Finding {
	var raw []Finding
	for _, a := range analyzers {
		a.Run(&Pass{
			Fset:     pkg.Fset,
			Files:    pkg.Files,
			Pkg:      pkg.Types,
			Info:     pkg.Info,
			Path:     pkg.Path,
			Library:  pkg.Library,
			check:    a.Name,
			findings: &raw,
		})
	}
	dirs, bad := directives(pkg.Fset, pkg.Files)
	out, used := filterIgnored(raw, dirs)
	out = append(out, bad...)
	out = append(out, staleDirectives(dirs, used, analyzers)...)
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Pos, out[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		if out[i].Check != out[j].Check {
			return out[i].Check < out[j].Check
		}
		return out[i].Message < out[j].Message
	})
	return out
}

// fileOf returns the *ast.File containing pos.
func fileOf(fset *token.FileSet, files []*ast.File, pos token.Pos) *ast.File {
	for _, f := range files {
		if f.FileStart <= pos && pos <= f.FileEnd {
			return f
		}
	}
	return nil
}
