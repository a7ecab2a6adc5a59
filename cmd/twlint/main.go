// Command twlint runs twsearch's project-specific static analyzers over
// module packages. It is built purely on the Go standard library — no
// golang.org/x/tools — so the module stays dependency-free.
//
// Usage:
//
//	twlint [-checks] [-json] [packages]
//
// where packages are directory paths or "./..."-style patterns (default
// "./..."). -checks lists the registered checks. Findings print one per
// line as
//
//	file:line: [check-name] message
//
// or, with -json, as one JSON object per line:
//
//	{"file":"...","line":N,"check":"...","message":"..."}
//
// In both modes the command exits 1 when any finding survives
// //lint:ignore filtering, 2 on a load or type-check failure. The finding
// stream on stdout is byte-deterministic — findings are sorted by position,
// check and message — so golden diffs are stable.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"twsearch/internal/lint"
)

// jsonFinding is the -json wire form of one finding, one object per line,
// stable for CI consumers.
type jsonFinding struct {
	File    string `json:"file"`
	Line    int    `json:"line"`
	Check   string `json:"check"`
	Message string `json:"message"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("twlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	listChecks := fs.Bool("checks", false, "list the registered checks and exit")
	asJSON := fs.Bool("json", false, "emit findings as one JSON object per line")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: twlint [-checks] [-json] [packages]\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *listChecks {
		for _, a := range lint.Analyzers() {
			fmt.Fprintf(stdout, "%-12s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(stderr, "twlint:", err)
		return 2
	}
	loader, err := lint.NewLoader(cwd)
	if err != nil {
		fmt.Fprintln(stderr, "twlint:", err)
		return 2
	}
	dirs, err := loader.ExpandPatterns(cwd, patterns)
	if err != nil {
		fmt.Fprintln(stderr, "twlint:", err)
		return 2
	}

	exit := 0
	for _, dir := range dirs {
		pkg, err := loader.Load(dir)
		if err != nil {
			fmt.Fprintln(stderr, "twlint:", err)
			return 2
		}
		for _, f := range lint.RunPackage(pkg, lint.Analyzers()) {
			if rel, err := filepath.Rel(cwd, f.Pos.Filename); err == nil && !filepath.IsAbs(rel) {
				f.Pos.Filename = rel
			}
			if *asJSON {
				line, err := json.Marshal(jsonFinding{
					File:    f.Pos.Filename,
					Line:    f.Pos.Line,
					Check:   f.Check,
					Message: f.Message,
				})
				if err != nil {
					fmt.Fprintln(stderr, "twlint:", err)
					return 2
				}
				fmt.Fprintln(stdout, string(line))
			} else {
				fmt.Fprintln(stdout, f.String())
			}
			exit = 1
		}
	}
	return exit
}
