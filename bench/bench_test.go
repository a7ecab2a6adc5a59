package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestMain lets the test binary stand in for the benchmark binary: the
// smoke test runs workloads in child processes of os.Executable(), which
// here is this test binary, and a child carries childEnv.
func TestMain(m *testing.M) {
	if os.Getenv(childEnv) != "" {
		main()
		return
	}
	os.Exit(m.Run())
}

func TestPercentileNearestRank(t *testing.T) {
	vs := make([]float64, 200)
	for i := range vs {
		vs[i] = float64(i + 1)
	}
	for _, c := range []struct {
		p            float64
		want         float64
		beyond       int
		lowPrecision bool
	}{
		{50, 100, 100, false},
		{95, 190, 10, false}, // exactly ten samples beyond: trusted
		{99, 198, 2, true},
		{100, 200, 0, true},
	} {
		got, beyond := percentile(vs, c.p)
		if got != c.want || beyond != c.beyond {
			t.Errorf("p%v of 1..200 = %v with %d beyond, want %v with %d", c.p, got, beyond, c.want, c.beyond)
		}
		if m := percentileMetric(vs, c.p); m.LowSamples != c.lowPrecision || m.N != 200 {
			t.Errorf("p%v: LowSamples=%v N=%d, want %v and 200", c.p, m.LowSamples, m.N, c.lowPrecision)
		}
	}
	// One sample short of the rule.
	if m := percentileMetric(vs[:199], 95); !m.LowSamples {
		t.Errorf("p95 of 199 samples has %d beyond and must be marked", 199-190)
	}
	if v, beyond := percentile([]float64{7}, 50); v != 7 || beyond != 0 {
		t.Errorf("p50 of one sample = %v, %d beyond", v, beyond)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4) == [3.5, 13.5, 31.0]
	q1, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || q3 != 31 {
		t.Errorf("quartiles = %v, %v; Python gives 3.5, 31.0", q1, q3)
	}
	// statistics.quantiles([10, 12], n=4) == [9.5, 11.0, 12.5]
	if q1, q3 := quartiles([]float64{10, 12}); q1 != 9.5 || q3 != 12.5 {
		t.Errorf("quartiles of two values = %v, %v; Python gives 9.5, 12.5", q1, q3)
	}
	if s := spread([]float64{5}); s != 0 {
		t.Errorf("spread of one run = %v, want 0", s)
	}
}

func TestFailedOperationsCountOnlyAsErrors(t *testing.T) {
	const msec = time.Millisecond
	ops := []op{{kind: opRange}, {kind: opKNN}, {kind: opScan}, {kind: opRange}}
	good := answerSum{n: 3, h: 42}
	ref := []answerSum{good, good, good, good}
	samples := []sample{
		{op: 0, lat: 10 * msec, sum: good},
		{op: 1, lat: 20 * msec, sum: good},
		{op: 2, lat: 30 * msec, sum: good},
		{op: 3, lat: 999 * msec, err: errors.New("refused")},
		{op: 0, lat: 999 * msec, sum: answerSum{n: 3, h: 43}}, // wrong answers
		{op: 1, lat: 40 * msec, sum: good},
		{op: 2, lat: 25 * msec, sum: good},
		{op: 3, lat: 50 * msec, sum: good},
	}
	res := result{EndToEnd: map[string]Metric{}}
	summarize(&res, ops, samples, judge(&res, samples, ref), 3*time.Second)

	if res.Attempted != 8 || res.Failed != 2 || res.Correct {
		t.Fatalf("attempted %d failed %d correct %v, want 8, 2, false", res.Attempted, res.Failed, res.Correct)
	}
	e := res.EndToEnd
	if got := e["error_rate"].Value; got != 0.25 {
		t.Errorf("error_rate = %v, want 2/8", got)
	}
	// Every good execution is a sample: 10, 20, 25, 30, 40, 50 ms.
	if got := e["query_p50_ms"]; got.Value != 25 || got.N != 6 {
		t.Errorf("p50 = %+v, want the nearest-rank 25 ms over 6 executions", got)
	}
	if got := e["query_p95_ms"]; got.Value != 50 || got.N != 6 || !got.LowSamples {
		t.Errorf("p95 = %+v: a failed execution's 999 ms must not be a latency sample", got)
	}
	if got := e["throughput_qps"]; got.Value != 2 || got.N != 6 {
		t.Errorf("throughput = %+v, want the 6 successes over the window's 3 s", got)
	}
	if got := e["knn_p50_ms"]; got.Value != 20 || got.N != 2 {
		t.Errorf("knn p50 = %+v, want 20 over 2 executions", got)
	}
	if got := e["scan_p50_ms"]; got.Value != 25 || got.N != 2 {
		t.Errorf("scan p50 = %+v, want 25 over 2 executions", got)
	}
	if len(res.Notes) != 2 {
		t.Errorf("notes = %q, want one per failure", res.Notes)
	}
}

func TestCursorCompletesEveryRoundItStarts(t *testing.T) {
	once := &cursor{block: 3, start: time.Now()}
	for want := 0; want < 3; want++ {
		if i, ok := once.take(); !ok || i != want {
			t.Fatalf("take %d = %d, %v", want, i, ok)
		}
	}
	if _, ok := once.take(); ok {
		t.Error("a window of no duration is exactly one round")
	}
	timed := &cursor{block: 3, start: time.Now().Add(-time.Hour), dur: time.Minute}
	for want := 0; want < 3; want++ {
		if _, ok := timed.take(); !ok {
			t.Fatalf("an expired window must still complete its first round (take %d)", want)
		}
	}
	if _, ok := timed.take(); ok {
		t.Error("no new round may start after the window has closed")
	}
	open := &cursor{block: 2, start: time.Now(), dur: time.Hour}
	for want := 0; want < 7; want++ {
		if i, ok := open.take(); !ok || i != want {
			t.Fatalf("open window: take %d = %d, %v", want, i, ok)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Start: 0, End: 100},
		{ID: 2, Parent: 1, Start: 10, End: 40},  // child
		{ID: 3, Parent: 1, Start: 30, End: 60},  // overlaps child 2: 10..60 is covered once
		{ID: 4, Parent: 1, Start: 90, End: 120}, // runs past the parent: clipped to 90..100
		{ID: 5, Parent: 2, Start: 15, End: 25},  // nested grandchild
		{ID: 6, Parent: 2, Start: 20, End: 22},  // inside its sibling: adds nothing
	}
	want := map[int]int64{1: 100 - 50 - 10, 2: 30 - 10, 3: 30, 4: 30, 5: 10, 6: 2}
	got := selfTimes(spans)
	for id, w := range want {
		if got[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, got[id], w)
		}
	}
}

func TestTracerSyntheticChild(t *testing.T) {
	tr := newTracer()
	root := tr.begin(7, 0, "op.search")
	s := tr.begin(7, root, "seqdb.search")
	tr.end(s)
	tr.spans[s-1].Start, tr.spans[s-1].End = 100, 1100
	tr.synthetic(s, "core.search", 900)
	tr.synthetic(s, "core.search", 5000) // longer than its parent: clipped
	tr.end(root)
	if c := tr.spans[2]; c.Op != 7 || c.Parent != s || c.Start != 200 || c.End != 1100 {
		t.Errorf("synthetic child = %+v, want the last 900 ns of its parent", c)
	}
	if c := tr.spans[3]; c.Start != 100 {
		t.Errorf("over-long synthetic child starts at %d, want its parent's start", c.Start)
	}
	if self := selfTimes(tr.spans)[s]; self != 0 {
		t.Errorf("self time under a covering child = %d, want 0", self)
	}
}

// TestInputsPinned pins the seed-1 dataset and operation list of every
// workload. If this fails the generators changed, and every number measured
// before the change is about different inputs.
func TestInputsPinned(t *testing.T) {
	want := map[string]string{
		"selective":  "d3164a18d966af00",
		"broad":      "d36b07d1c7844679",
		"lowmem":     "d3164a18d966af00",
		"mixed":      "e0fc60bad7e7c500",
		"trajectory": "c2593b1af6249104",
	}
	for _, sp := range workloads {
		d, ops := generate(1, sp)
		if got := inputDigest(d, ops); got != want[sp.name] {
			t.Errorf("%s: input digest %s, pinned %s", sp.name, got, want[sp.name])
		}
		if len(ops) != sp.mix.count {
			t.Errorf("%s: %d operations, want %d", sp.name, len(ops), sp.mix.count)
		}
	}
	if want["selective"] != want["lowmem"] {
		t.Error("lowmem must replay the selective data and operations")
	}
	d1, ops1 := generate(2, workloads[0])
	d2, ops2 := generate(2, workloads[0])
	if inputDigest(d1, ops1) != inputDigest(d2, ops2) || inputDigest(d1, ops1) == want["selective"] {
		t.Error("a seed must name one input set, and different seeds different ones")
	}
}

func TestJudgeChange(t *testing.T) {
	lower := metricDef{name: "a_ms", better: "lower", bound: 0.10}
	higher := metricDef{name: "b_qps", better: "higher", bound: 0.10}
	exact := metricDef{name: "error_rate", better: "lower", bound: 0}
	for _, c := range []struct {
		def       metricDef
		base, new Metric
		want      string
	}{
		{lower, Metric{Value: 10}, Metric{Value: 10.9}, "ok"},
		{lower, Metric{Value: 10}, Metric{Value: 11.1}, "regressed"},
		{lower, Metric{Value: 10}, Metric{Value: 5}, "ok"},
		{higher, Metric{Value: 100}, Metric{Value: 89}, "regressed"},
		{higher, Metric{Value: 100}, Metric{Value: 150}, "ok"},
		{lower, Metric{Value: 10, Spread: 0.2}, Metric{Value: 20}, "unresolved"},
		{lower, Metric{Value: 10}, Metric{Value: 10, LowSamples: true}, "unresolved"},
		{exact, Metric{Value: 0}, Metric{Value: 0}, "ok"},
		{exact, Metric{Value: 0}, Metric{Value: 0.001}, "regressed"},
	} {
		if _, got := judgeChange(c.def, c.base, c.new); got != c.want {
			t.Errorf("%s %v -> %v: %s, want %s", c.def.name, c.base, c.new, got, c.want)
		}
	}
}

// TestBenchmarkJSONAgrees keeps BENCHMARK.json, which the driver reads, and
// the lists in metrics.go and workloads.go, which the program prints from,
// the same.
func TestBenchmarkJSONAgrees(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Skipf("no BENCHMARK.json above the benchmark directory: %v", err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              float64
	}
	var doc struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in workloads.go", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: %q / %q differs from workloads.go", i, w.Name, w.Why)
		}
	}
	check := func(kind string, got []metric, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%d %s metrics in BENCHMARK.json, %d in metrics.go", len(got), kind, len(want))
		}
		for i, m := range got {
			if d := want[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound != d.bound {
				t.Errorf("%s metric %d: %+v differs from %+v", kind, i, m, d)
			}
		}
	}
	check("end-to-end", doc.EndToEnd, contractEndToEnd)
	check("per-layer", doc.PerLayer, layerMetrics)
}

// TestSmoke runs all five workloads end to end at a twentieth of their size,
// each pass in a child process, and checks that every metric the README
// names is emitted and every answer check passes.
func TestSmoke(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "doc.json")
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-smoke", "-workdir", dir, "-out", out, "-trace-out", filepath.Join(dir, "spans-")}, &stdout, &stderr); err != nil {
		t.Fatalf("smoke run: %v\n%s", err, stderr.String())
	}
	b, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var doc document
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Canonical || len(doc.Workloads) != len(workloads) {
		t.Fatalf("canonical=%v with %d workloads; a smoke run is an exploration run of all %d", doc.Canonical, len(doc.Workloads), len(workloads))
	}
	layersSeen := map[string]bool{}
	for i, r := range doc.Workloads {
		if r.Workload != workloads[i].name || !r.Correct || r.Failed != 0 || r.Attempted == 0 {
			t.Errorf("%s: correct=%v failed=%d attempted=%d notes=%q", r.Workload, r.Correct, r.Failed, r.Attempted, r.Notes)
		}
		for _, def := range documentEndToEnd {
			m, ok := r.EndToEnd[def.name]
			mixedOnly := def.name == "knn_p50_ms" || def.name == "scan_p50_ms"
			if ok != (!mixedOnly || r.Workload == "mixed") {
				t.Errorf("%s: end-to-end metric %s present=%v", r.Workload, def.name, ok)
			}
			if ok && (m.Unit != def.unit || m.N == 0) {
				t.Errorf("%s: %s = %+v, want unit %s and a sample count", r.Workload, def.name, m, def.unit)
			}
		}
		for name, m := range r.Layers {
			layersSeen[name] = true
			if m.Unit == "" || m.N == 0 {
				t.Errorf("%s: layer metric %s = %+v lacks a unit or a sample count", r.Workload, name, m)
			}
		}
		if _, err := os.Stat(filepath.Join(dir, "spans-"+r.Workload+".json")); err != nil {
			t.Errorf("%s: no span file: %v", r.Workload, err)
		}
	}
	for _, def := range layerMetrics {
		if !layersSeen[def.name] {
			t.Errorf("no workload emitted layer metric %s", def.name)
		}
		delete(layersSeen, def.name)
	}
	for name := range layersSeen {
		t.Errorf("layer metric %s is emitted but not listed in metrics.go", name)
	}
	if !strings.Contains(stdout.String(), "query_p50_ms") || !strings.Contains(stdout.String(), "selective") {
		t.Errorf("no table for people on standard output:\n%s", stdout.String())
	}
	if left, _ := filepath.Glob(filepath.Join(dir, "*-*")); len(left) != len(workloads) { // only the span files
		t.Errorf("run left files behind: %v", left)
	}

	// A smoke document is not canonical, so -compare must refuse it.
	err = run([]string{"-compare", out, out}, &stdout, &stderr)
	if err == nil || !strings.Contains(err.Error(), "canonical") {
		t.Errorf("-compare on a non-canonical document: %v, want a refusal", err)
	}
}

func TestCompareDocuments(t *testing.T) {
	dir := t.TempDir()
	selective := func(p50 float64, digest string) result {
		return result{
			Workload: "selective", Correct: true, AnswerDigest: digest,
			EndToEnd: map[string]Metric{"query_p50_ms": {Value: p50, Unit: "ms", N: 500}},
		}
	}
	write := func(name string, runs int, workloads ...result) string {
		path := filepath.Join(dir, name)
		if err := writeJSON(path, document{Seed: 1, Seconds: 10, Runs: runs, Canonical: true, Workloads: workloads}); err != nil {
			t.Fatal(err)
		}
		return path
	}
	broad := result{Workload: "broad", Correct: true, AnswerDigest: "d0", EndToEnd: map[string]Metric{}}
	base := write("a.json", 1, selective(10, "d1"), broad)
	var out bytes.Buffer
	if err := run([]string{"-compare", base, write("b.json", 1, selective(10.9, "d1"), broad)}, &out, &out); err != nil {
		t.Errorf("+9%% is within the bound: %v\n%s", err, out.String())
	}
	if err := run([]string{"-compare", base, write("c.json", 1, selective(13, "d1"), broad)}, &out, &out); err == nil {
		t.Errorf("+30%% must fail the comparison\n%s", out.String())
	}
	if err := run([]string{"-compare", base, write("d.json", 1, selective(10, "d2"), broad)}, &out, &out); err == nil {
		t.Errorf("changed answers must fail the comparison\n%s", out.String())
	}
	if !strings.Contains(out.String(), "regressed") || !strings.Contains(out.String(), "query_p50_ms") {
		t.Errorf("comparison table lacks rows:\n%s", out.String())
	}

	// A truncated document must not compare as clean.
	out.Reset()
	if err := run([]string{"-compare", base, write("e.json", 1, selective(10, "d1"))}, &out, &out); err == nil || !strings.Contains(out.String(), "missing") {
		t.Errorf("a document without the broad workload: %v\n%s", err, out.String())
	}
	noMetric := selective(10, "d1")
	delete(noMetric.EndToEnd, "query_p50_ms")
	out.Reset()
	if err := run([]string{"-compare", base, write("f.json", 1, noMetric, broad)}, &out, &out); err == nil || !strings.Contains(out.String(), "missing") {
		t.Errorf("a document without query_p50_ms: %v\n%s", err, out.String())
	}
	if err := run([]string{"-compare", base, write("g.json", 5, selective(10, "d1"), broad)}, &out, &out); err == nil || !strings.Contains(err.Error(), "run settings") {
		t.Errorf("medians of five runs against a single run: %v, want a refusal", err)
	}
}
