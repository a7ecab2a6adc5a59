// Command benchtables regenerates the paper's evaluation (Section 7):
// Table 1 (index sizes vs number of categories), Table 2 (query effort vs
// number of categories), Table 3 (SeqScan vs SimSearch-SST_C across distance
// thresholds), Figure 4 (scalability in sequence length), Figure 5
// (scalability in sequence count), and the ablations DESIGN.md calls out.
// It reports the paper's cost units only — index KB, DP cells, nodes
// visited, pages read and answers — so a fixed seed reprints the same
// bytes on any machine. At the default -scale 1 the workloads match the
// paper's (545 stock-like sequences of average length 232; artificial
// random walks up to 10000x200).
//
// Usage:
//
//	benchtables [-scale f] [-queries n] [-seed n] [-dir d] [-only list] [-workload stocks|artificial]
//
// -only takes a comma-separated subset of: t1,t2,t3,f4,f5,ablations. An
// unknown name is a usage error (exit status 2).
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
)

// sections are what -only selects, in the order they run.
var sections = []struct {
	name string
	run  func(Config) error
}{
	{"t1", func(c Config) error { _, err := Table1(c); return err }},
	{"t2", func(c Config) error { _, err := Table2(c); return err }},
	{"t3", func(c Config) error { _, err := Table3(c); return err }},
	{"f4", func(c Config) error { _, err := Figure4(c); return err }},
	{"f5", func(c Config) error { _, err := Figure5(c); return err }},
	{"ablations", ablations},
}

var errUsage = errors.New("usage")

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchtables:", err)
		if errors.Is(err, errUsage) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	var names []string
	for _, s := range sections {
		names = append(names, s.name)
	}
	fs := flag.NewFlagSet("benchtables", flag.ContinueOnError)
	scale := fs.Float64("scale", 1.0, "workload scale; 1.0 = paper scale")
	queries := fs.Int("queries", 10, "queries per measurement")
	seed := fs.Int64("seed", 1, "generator seed")
	dir := fs.String("dir", "", "work directory for index files (default: temp dir)")
	only := fs.String("only", "", "comma-separated subset: "+strings.Join(names, ","))
	dataKind := fs.String("workload", "stocks", "table workload: stocks or artificial")
	if err := fs.Parse(args); err != nil {
		return fmt.Errorf("%w: %v", errUsage, err)
	}

	want := map[string]bool{}
	if *only == "" {
		for _, k := range names {
			want[k] = true
		}
	} else {
		for _, k := range strings.Split(*only, ",") {
			k = strings.TrimSpace(k)
			if !slices.Contains(names, k) {
				return fmt.Errorf("%w: -only: unknown name %q (want a subset of %s)", errUsage, k, strings.Join(names, ","))
			}
			want[k] = true
		}
	}

	workDir := *dir
	if workDir == "" {
		var err error
		workDir, err = os.MkdirTemp("", "twsearch-bench-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(workDir)
	}

	cfg := Config{
		Scale:    *scale,
		Queries:  *queries,
		Seed:     *seed,
		Dir:      workDir,
		Workload: Workload(*dataKind),
		Out:      stdout,
	}

	fmt.Fprintf(stdout, "twsearch benchtables: scale=%.2f queries=%d seed=%d\n\n", *scale, *queries, *seed)
	for _, s := range sections {
		if !want[s.name] {
			continue
		}
		if err := s.run(cfg); err != nil {
			return fmt.Errorf("%s: %w", s.name, err)
		}
		fmt.Fprintln(stdout)
	}
	return nil
}

// ablations runs every ablation study in turn.
func ablations(cfg Config) error {
	if _, err := AblationSparse(cfg); err != nil {
		return err
	}
	if _, err := AblationPruning(cfg); err != nil {
		return err
	}
	if _, err := AblationWindow(cfg); err != nil {
		return err
	}
	if _, err := AblationBufferPool(cfg); err != nil {
		return err
	}
	_, err := AblationQueryLength(cfg)
	return err
}
