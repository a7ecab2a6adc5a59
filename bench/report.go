package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"text/tabwriter"
)

// environment records where the numbers were taken. No speed-up ratio is
// ever derived from it; it says how many CPUs the closed loop could use.
type environment struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
}

// document is the benchmark's full output: every workload's end-to-end and
// per-layer metrics, as medians over Runs runs.
type document struct {
	Env       environment `json:"env"`
	Seed      int64       `json:"seed"`
	Seconds   float64     `json:"seconds"`
	Runs      int         `json:"runs"`
	Canonical bool        `json:"canonical"`
	Overrides []string    `json:"overrides,omitempty"`
	Workloads []result    `json:"workloads"`
}

// childEnv marks a process as a workload child; bench_test.go's TestMain
// uses it to let the test binary stand in for the benchmark binary.
const childEnv = "TWBENCH_CHILD"

// overrideFlags renders the exploration overrides as child arguments.
func (c config) overrideFlags() []string {
	var out []string
	add := func(name, value string, set bool) {
		if set {
			out = append(out, "-"+name, value)
		}
	}
	if c.smoke {
		out = append(out, "-smoke") // sets the scale too
	}
	add("scale", strconv.FormatFloat(c.scale, 'g', -1, 64), c.scale != 1 && !c.smoke)
	add("clients", strconv.Itoa(c.clients), c.clients != 0)
	add("shards", strconv.Itoa(c.shards), c.shards != 0)
	add("parallelism", strconv.Itoa(c.parallelism), c.parallelism != 0)
	add("encoding", c.encoding, c.encoding != "")
	add("backend", c.backend, c.backend != "")
	add("envelopes", c.envelopes, c.envelopes != "")
	return out
}

// runAll runs every selected workload, each pass in a child process of this
// binary so heap, pools and the resident-set mark do not carry over, and
// prints the table and the document.
func runAll(o options, stdout, stderr io.Writer) error {
	specs := workloads
	if o.workload != "" {
		sp, err := findWorkload(o.workload)
		if err != nil {
			return err
		}
		specs = []spec{sp}
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	doc := document{
		Env: environment{
			GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
			NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		},
		Seed: o.cfg.seed, Seconds: o.cfg.seconds, Runs: o.runs,
		Canonical: o.cfg.canonical(), Overrides: o.cfg.overrideFlags(),
	}
	correct := true
	for _, sp := range specs {
		var passes []result
		for r := 0; r < o.runs; r++ {
			for trace := 0; trace <= 1; trace++ {
				fmt.Fprintf(stderr, "bench: %s run %d/%d trace %d\n", sp.name, r+1, o.runs, trace)
				res, err := runChild(exe, o, sp.name, trace, len(specs) > 1, stderr)
				if err != nil {
					return err
				}
				passes = append(passes, res)
			}
		}
		merged := mergeRuns(passes)
		correct = correct && merged.Correct
		doc.Workloads = append(doc.Workloads, merged)
	}
	printTable(stdout, doc)
	if o.out != "" {
		err = writeJSON(o.out, doc)
	} else {
		var b []byte
		if b, err = json.MarshalIndent(doc, "", "  "); err == nil {
			_, err = fmt.Fprintf(stdout, "%s\n", b)
		}
	}
	if err == nil && !correct {
		err = errors.New("an answer check failed; see the notes in the document")
	}
	return err
}

// runChild runs one pass of one workload in a child process and reads its
// result file.
func runChild(exe string, o options, workload string, trace int, several bool, stderr io.Writer) (result, error) {
	var res result
	tmp, err := os.CreateTemp(o.cfg.workdir, "result-*.json")
	if err != nil {
		return res, err
	}
	tmp.Close()
	defer os.Remove(tmp.Name())

	args := []string{
		"-workload", workload, "-trace", strconv.Itoa(trace), "-out", tmp.Name(),
		"-seed", strconv.FormatInt(o.cfg.seed, 10),
		"-seconds", strconv.FormatFloat(o.cfg.seconds, 'g', -1, 64),
		"-workdir", o.cfg.workdir,
	}
	args = append(args, o.cfg.overrideFlags()...)
	if trace == 1 && o.traceOut != "" {
		path := o.traceOut
		if several {
			path = fmt.Sprintf("%s%s.json", o.traceOut, workload)
		}
		args = append(args, "-trace-out", path)
	}
	cmd := exec.Command(exe, args...)
	cmd.Env = append(os.Environ(), childEnv+"=1")
	cmd.Stderr = stderr
	runErr := cmd.Run()
	b, err := os.ReadFile(tmp.Name())
	if err != nil || len(b) == 0 {
		return res, fmt.Errorf("%s trace %d: child left no result: %w", workload, trace, errors.Join(runErr, err))
	}
	// A child that failed its answer check exits non-zero but still writes
	// its result, which carries the reason.
	if err := json.Unmarshal(b, &res); err != nil {
		return res, fmt.Errorf("%s trace %d: %w", workload, trace, err)
	}
	return res, nil
}

// mergeRuns folds the passes of one workload — end-to-end and traced, over
// all runs — into one result: each metric the median of its runs, with the
// interquartile spread when there are several.
func mergeRuns(passes []result) result {
	out := passes[0]
	out.EndToEnd, out.Layers = map[string]Metric{}, map[string]Metric{}
	out.Attempted, out.Failed, out.Notes = 0, 0, nil
	e2e, layers := map[string][]Metric{}, map[string][]Metric{}
	for _, p := range passes {
		out.Correct = out.Correct && p.Correct
		out.Attempted += p.Attempted
		out.Failed += p.Failed
		out.Notes = append(out.Notes, p.Notes...)
		if p.AnswerDigest != out.AnswerDigest || p.InputDigest != out.InputDigest {
			out.Correct = false
			out.Notes = append(out.Notes, "digests differ between passes of the same seed")
		}
		if p.EndToEnd != nil {
			out.Clients = p.Clients
		}
		for name, m := range p.EndToEnd {
			e2e[name] = append(e2e[name], m)
		}
		for name, m := range p.Layers {
			layers[name] = append(layers[name], m)
		}
	}
	fold := func(dst map[string]Metric, src map[string][]Metric) {
		for name, ms := range src {
			vals := make([]float64, len(ms))
			m := ms[0]
			for i, x := range ms {
				vals[i] = x.Value
				m.LowSamples = m.LowSamples || x.LowSamples
			}
			m.Value, m.Spread = median(vals), spread(vals)
			dst[name] = m
		}
	}
	fold(out.EndToEnd, e2e)
	fold(out.Layers, layers)
	return out
}

// printTable prints the metrics for people: one row per metric, one column
// per workload. Sample counts and spreads are in the document.
func printTable(w io.Writer, doc document) {
	fmt.Fprintf(w, "twsearch bench: seed %d, %g s window, %d run(s), nproc %d, GOMAXPROCS %d, %s, canonical=%v\n",
		doc.Seed, doc.Seconds, doc.Runs, doc.Env.NProc, doc.Env.GOMAXPROCS, doc.Env.GoVersion, doc.Canonical)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', tabwriter.AlignRight)
	section := func(title string, defs []metricDef, pick func(result) map[string]Metric) {
		fmt.Fprintf(tw, "%s\t", title)
		for _, r := range doc.Workloads {
			fmt.Fprintf(tw, "%s\t", r.Workload)
		}
		fmt.Fprintln(tw, "unit\t")
		for _, def := range defs {
			fmt.Fprintf(tw, "%s\t", def.name)
			for _, r := range doc.Workloads {
				if m, ok := pick(r)[def.name]; ok {
					fmt.Fprintf(tw, "%.4g\t", m.Value)
				} else {
					fmt.Fprint(tw, "-\t")
				}
			}
			fmt.Fprintf(tw, "%s\t\n", def.unit)
		}
		fmt.Fprintln(tw, "\t")
	}
	section("end-to-end", documentEndToEnd, func(r result) map[string]Metric { return r.EndToEnd })
	section("per-layer", layerMetrics, func(r result) map[string]Metric { return r.Layers })
	fmt.Fprintf(tw, "answers\t")
	for _, r := range doc.Workloads {
		status := "ok"
		if !r.Correct {
			status = "FAILED"
		}
		fmt.Fprintf(tw, "%s\t", status)
	}
	fmt.Fprintln(tw, "\t")
	tw.Flush()
	for _, r := range doc.Workloads {
		fmt.Fprintf(w, "%s: answer digest %s, input digest %s, %d clients\n", r.Workload, r.AnswerDigest, r.InputDigest, r.Clients)
	}
}

// compareFiles prints one row per (workload, end-to-end metric) of two
// documents — baseline first — and fails if any metric regressed, or if the
// new document lacks a workload or metric the baseline has.
func compareFiles(basePath, newPath string, w io.Writer) error {
	base, err := readDocument(basePath)
	if err != nil {
		return err
	}
	changed, err := readDocument(newPath)
	if err != nil {
		return err
	}
	if base.Seed != changed.Seed || base.Seconds != changed.Seconds || base.Runs != changed.Runs {
		return fmt.Errorf("documents differ in run settings (seed %d, %g s, %d runs against seed %d, %g s, %d runs)",
			base.Seed, base.Seconds, base.Runs, changed.Seed, changed.Seconds, changed.Runs)
	}
	after := map[string]result{}
	for _, r := range changed.Workloads {
		after[r.Workload] = r
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tbase\tnew\tchange\tbound\tstatus")
	regressed := 0
	for _, a := range base.Workloads {
		b, ok := after[a.Workload]
		if !ok {
			// A document that lost a workload must not compare as clean.
			regressed++
			fmt.Fprintf(tw, "%s\t(all)\t\t\t\t\tmissing\n", a.Workload)
			continue
		}
		for _, def := range documentEndToEnd {
			ma, okA := a.EndToEnd[def.name]
			if !okA {
				continue // the metric does not apply to this workload
			}
			mb, okB := b.EndToEnd[def.name]
			if !okB {
				regressed++
				fmt.Fprintf(tw, "%s\t%s\t%.5g\t\t\t%.0f%%\tmissing\n", a.Workload, def.name, ma.Value, def.bound*100)
				continue
			}
			change, status := judgeChange(def, ma, mb)
			if status == "regressed" {
				regressed++
			}
			fmt.Fprintf(tw, "%s\t%s\t%.5g\t%.5g\t%+.2f%%\t%.0f%%\t%s\n", a.Workload, def.name, ma.Value, mb.Value, change*100, def.bound*100, status)
		}
		status := "ok"
		if a.AnswerDigest != b.AnswerDigest || !b.Correct {
			status = "regressed"
			regressed++
		}
		fmt.Fprintf(tw, "%s\tanswer_digest\t%s\t%s\t\t\t%s\n", a.Workload, a.AnswerDigest, b.AnswerDigest, status)
	}
	tw.Flush()
	if regressed > 0 {
		return fmt.Errorf("%d row(s) regressed or missing", regressed)
	}
	return nil
}

// readDocument loads a document for -compare, which accepts canonical runs
// only: an exploration override measures a different program.
func readDocument(path string) (document, error) {
	var doc document
	b, err := os.ReadFile(path)
	if err != nil {
		return doc, err
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		return doc, fmt.Errorf("%s: %w", path, err)
	}
	if !doc.Canonical {
		return doc, fmt.Errorf("%s is not a canonical run (overrides %v); -compare refuses it", path, doc.Overrides)
	}
	return doc, nil
}

// judgeChange returns how much worse the new value is, as a share of the
// baseline (negative when better), and the verdict: regressed beyond the
// bound, unresolved when either side's run-to-run spread is wider than the
// bound or a percentile lacks samples, else ok.
func judgeChange(def metricDef, base, changed Metric) (float64, string) {
	worse := changed.Value - base.Value
	if def.better == "higher" {
		worse = -worse
	}
	if base.Value != 0 {
		worse /= base.Value
	}
	switch {
	case def.bound > 0 && (max(base.Spread, changed.Spread) > def.bound || base.LowSamples || changed.LowSamples):
		return worse, "unresolved"
	case worse > def.bound:
		return worse, "regressed"
	}
	return worse, "ok"
}
