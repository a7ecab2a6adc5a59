package lint

import (
	"go/ast"
	"go/token"
	"strings"
)

// ignoreKey identifies one suppressed (file, line, check) triple.
type ignoreKey struct {
	file  string
	line  int
	check string
}

// ignoreDirective is one well-formed //lint:ignore annotation.
type ignoreDirective struct {
	pos    token.Position
	checks []string
}

// markerKinds are the //twlint: directive kinds some analyzer reads:
// ctx-root (ctxflow) and steady-state (steadystate). An analyzer that reads
// a new kind adds it here.
var markerKinds = map[string]bool{"ctx-root": true, "steady-state": true}

// directives scans the comments of every file for //lint:ignore annotations.
// A directive suppresses findings of the named check on its own line and on
// the line directly below it (so it can sit above the statement it audits).
// Malformed directives — a missing check name or a missing reason — are
// returned as findings in their own right: an unexplained exception is not
// an audited exception. So is a //twlint: marker of a kind no analyzer
// reads: a misspelt or leftover marker would otherwise declare nothing,
// silently.
func directives(fset *token.FileSet, files []*ast.File) ([]ignoreDirective, []Finding) {
	var dirs []ignoreDirective
	var bad []Finding
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if kind, ok := strings.CutPrefix(c.Text, "//twlint:"); ok {
					if i := strings.IndexAny(kind, " \t"); i >= 0 {
						kind = kind[:i]
					}
					if !markerKinds[kind] {
						bad = append(bad, Finding{Pos: fset.Position(c.Pos()), Check: "directive",
							Message: "//twlint:" + kind + " is a marker kind no check reads (known: ctx-root, steady-state); fix the kind or delete the marker"})
					}
					continue
				}
				text, ok := strings.CutPrefix(c.Text, "//lint:ignore")
				if !ok {
					continue
				}
				pos := fset.Position(c.Pos())
				fields := strings.Fields(text)
				if len(fields) == 0 {
					bad = append(bad, Finding{Pos: pos, Check: "directive",
						Message: "lint:ignore needs a check name and a reason"})
					continue
				}
				if len(fields) < 2 {
					bad = append(bad, Finding{Pos: pos, Check: "directive",
						Message: "lint:ignore " + fields[0] + " needs a reason documenting the invariant"})
					continue
				}
				dirs = append(dirs, ignoreDirective{pos: pos, checks: strings.Split(fields[0], ",")})
			}
		}
	}
	return dirs, bad
}

// filterIgnored drops findings suppressed by a directive, and reports which
// directives actually suppressed something.
func filterIgnored(findings []Finding, dirs []ignoreDirective) ([]Finding, []bool) {
	used := make([]bool, len(dirs))
	if len(dirs) == 0 {
		return findings, used
	}
	ignored := make(map[ignoreKey][]int)
	for i, d := range dirs {
		for _, check := range d.checks {
			ignored[ignoreKey{d.pos.Filename, d.pos.Line, check}] = append(ignored[ignoreKey{d.pos.Filename, d.pos.Line, check}], i)
			ignored[ignoreKey{d.pos.Filename, d.pos.Line + 1, check}] = append(ignored[ignoreKey{d.pos.Filename, d.pos.Line + 1, check}], i)
		}
	}
	out := findings[:0]
	for _, f := range findings {
		if dis, ok := ignored[ignoreKey{f.Pos.Filename, f.Pos.Line, f.Check}]; ok {
			for _, i := range dis {
				used[i] = true
			}
			continue
		}
		out = append(out, f)
	}
	return out, used
}

// staleDirectives reports //lint:ignore annotations that suppressed nothing
// this run. A directive is only judged when every check it names belongs to
// the running analyzer set — a partial run cannot know whether a directive
// for an absent check is live — except that a name matching no registered
// check at all is always stale.
func staleDirectives(dirs []ignoreDirective, used []bool, analyzers []*Analyzer) []Finding {
	active := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		active[a.Name] = true
	}
	registered := map[string]bool{"directive": true}
	for _, a := range Analyzers() {
		registered[a.Name] = true
	}
	var out []Finding
	for i, d := range dirs {
		if used[i] {
			continue
		}
		judgeable := true
		for _, check := range d.checks {
			if !registered[check] {
				out = append(out, Finding{Pos: d.pos, Check: "directive",
					Message: "lint:ignore " + check + " names no registered check; fix the name or delete the directive"})
				judgeable = false
				continue
			}
			if !active[check] {
				judgeable = false // partial run: cannot prove staleness
			}
		}
		if judgeable {
			out = append(out, Finding{Pos: d.pos, Check: "directive",
				Message: "stale lint:ignore " + strings.Join(d.checks, ",") + ": it suppresses no finding here; delete it (the audited exception no longer exists)"})
		}
	}
	return out
}
