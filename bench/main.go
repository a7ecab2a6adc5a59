// Command bench is the repository's benchmark: every workload is set up
// from a seed, driven through the serving stack over loopback, checked for
// correct answers, and reported as end-to-end metrics (tracing off) and
// per-layer metrics (a separate traced pass and direct probes). README.md in
// this directory defines every metric and says which layer should move which
// number on which workload.
//
// Usage:
//
//	go run ./bench [-seed n] [-seconds s] [-runs n] [-workload name] [-out file] [-trace-out file]
//	go run ./bench -workload name -trace 0|1 [-seed n] [-seconds s]   one pass, result as the last line
//	go run ./bench -compare a.json b.json
//	go run ./bench -smoke
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// options is the parsed command line.
type options struct {
	cfg      config
	workload string
	trace    int // 0 end-to-end pass, 1 traced pass, -1 both in child processes
	runs     int
	out      string
	traceOut string
	compare  bool
	args     []string
}

func parseFlags(args []string, stderr io.Writer) (options, error) {
	var o options
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.Int64Var(&o.cfg.seed, "seed", 1, "seed of the benchmark's own input generators")
	fs.Float64Var(&o.cfg.seconds, "seconds", 10, "length of the measured window; 0 runs each operation list exactly once")
	fs.StringVar(&o.cfg.workdir, "workdir", ".bench_build", "directory for databases and child results (created if missing)")
	fs.StringVar(&o.workload, "workload", "", "run one workload (default: all)")
	fs.IntVar(&o.trace, "trace", -1, "with -workload: 0 runs the end-to-end pass, 1 the traced pass, in this process")
	fs.IntVar(&o.runs, "runs", 1, "repeat every workload this many times and report medians with their spread")
	fs.StringVar(&o.out, "out", "", "write the JSON document to this file instead of standard output")
	fs.StringVar(&o.traceOut, "trace-out", "", "write the traced pass's spans to this file (one workload) or prefix (several)")
	fs.BoolVar(&o.compare, "compare", false, "compare two documents: bench -compare a.json b.json")
	fs.BoolVar(&o.cfg.smoke, "smoke", false, "tiny run of every workload, for tests: -scale 0.05, 50 operations replayed once, one set-up")

	fs.Float64Var(&o.cfg.scale, "scale", 1, "exploration: scale data and operation counts")
	fs.IntVar(&o.cfg.clients, "clients", 0, "exploration: closed-loop clients per served workload")
	fs.IntVar(&o.cfg.shards, "shards", 0, "exploration: shard count of the sharded workload")
	fs.IntVar(&o.cfg.parallelism, "parallelism", 0, "exploration: per-query parallelism (client hint and server cap)")
	fs.StringVar(&o.cfg.encoding, "encoding", "", "exploration: node encoding, by seqdb.ParseEncoding")
	fs.StringVar(&o.cfg.backend, "backend", "", "exploration: page backend, by seqdb.ParseBackend")
	fs.StringVar(&o.cfg.envelopes, "envelopes", "", "exploration: envelope cascade mode, by seqdb.ParseEnvelopeMode")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	o.args = fs.Args()
	if o.cfg.smoke {
		o.cfg.scale, o.cfg.seconds = 0.05, 0
	}
	if o.cfg.scale <= 0 || o.runs < 1 {
		return o, fmt.Errorf("-scale must be positive and -runs at least 1")
	}
	return o, nil
}

func run(args []string, stdout, stderr io.Writer) error {
	o, err := parseFlags(args, stderr)
	if err != nil {
		return err
	}
	if o.compare {
		if len(o.args) != 2 {
			return fmt.Errorf("-compare needs two document files")
		}
		return compareFiles(o.args[0], o.args[1], stdout)
	}
	if len(o.args) != 0 {
		return fmt.Errorf("unexpected argument %q", o.args[0])
	}
	if err := os.MkdirAll(o.cfg.workdir, 0o755); err != nil {
		return err
	}
	if o.workload != "" && o.trace >= 0 {
		return runLeaf(o, stdout, stderr)
	}
	return runAll(o, stdout, stderr)
}

// line is the one-line result of a single pass, printed last on standard
// output: with -trace 0 the metrics are the end-to-end metrics of
// BENCHMARK.json, with -trace 1 its per-layer metrics.
type line struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]lineMetric `json:"metrics"`
}

type lineMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runLeaf runs one pass of one workload in this process.
func runLeaf(o options, stdout, stderr io.Writer) error {
	sp, err := findWorkload(o.workload)
	if err != nil {
		return err
	}
	sp = o.cfg.scaled(sp)
	ctx := context.Background()
	var res result
	var names []metricDef
	switch o.trace {
	case 0:
		res, err = runEndToEnd(ctx, o.cfg, sp)
		names = contractEndToEnd
	case 1:
		res, err = runTraced(ctx, o.cfg, sp, o.traceOut)
		names = layerMetrics
	default:
		return fmt.Errorf("-trace must be 0 or 1")
	}
	if err != nil {
		return err
	}
	if want, pinned := goldenDigest(o.cfg, sp.name); pinned && want != res.AnswerDigest {
		res.Correct = false
		res.note("answer digest %s differs from the pinned %s", res.AnswerDigest, want)
	}
	for _, n := range res.Notes {
		fmt.Fprintf(stderr, "bench: %s: %s\n", sp.name, n)
	}
	if o.out != "" {
		if err := writeJSON(o.out, res); err != nil {
			return err
		}
	}
	got := res.EndToEnd
	if o.trace == 1 {
		got = res.Layers
	}
	l := line{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]lineMetric{}}
	for _, def := range names {
		// A layer metric that does not apply to this workload reads 0.
		l.Metrics[def.name] = lineMetric{Value: got[def.name].Value, Unit: def.unit}
	}
	b, err := json.Marshal(l)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s\n", b)
	if !res.Correct {
		return fmt.Errorf("%s: answer check failed (%d of %d operations)", sp.name, res.Failed, res.Attempted)
	}
	return nil
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
