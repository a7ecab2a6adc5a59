package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"time"

	"twsearch/seqdb"
)

// result is one workload's outcome from one pass: the end-to-end pass fills
// EndToEnd, the traced pass fills Layers.
type result struct {
	Workload  string `json:"workload"`
	Why       string `json:"why"`
	Clients   int    `json:"clients"`
	Correct   bool   `json:"correct"`
	Attempted int    `json:"attempted"`
	Failed    int    `json:"failed"`
	// AnswerDigest folds the in-process answers of every operation;
	// InputDigest folds the generated dataset and operation list.
	AnswerDigest string            `json:"answer_digest"`
	InputDigest  string            `json:"input_digest"`
	EndToEnd     map[string]Metric `json:"end_to_end,omitempty"`
	Layers       map[string]Metric `json:"layers,omitempty"`
	Notes        []string          `json:"notes,omitempty"`
}

// note records a failure reason, keeping the list short.
func (r *result) note(format string, args ...any) {
	if len(r.Notes) < 8 {
		r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
	}
}

// answerSum identifies an answer set exactly: the loopback stream carries
// distances as bits, so equal sets have equal sums.
type answerSum struct {
	n int
	h uint64
}

func sumOf(ms []seqdb.Match) answerSum {
	d := newDigest()
	for _, m := range ms {
		for i := 0; i < len(m.SeqID); i++ {
			d.h = (d.h ^ uint64(m.SeqID[i])) * 1099511628211
		}
		d.u64(uint64(m.Seq))
		d.u64(uint64(m.Start))
		d.u64(uint64(m.End))
		d.f64(m.Distance)
	}
	return answerSum{n: len(ms), h: d.h}
}

// foldAnswers adds an answer set to the pinned digest. Distances are folded
// at 1e-6 resolution so the digest survives a platform whose floating-point
// contraction differs in the last bits.
func foldAnswers(d *digest, ms []seqdb.Match) {
	d.u64(uint64(len(ms)))
	for _, m := range ms {
		d.u64(uint64(m.Seq))
		d.u64(uint64(m.Start))
		d.u64(uint64(m.End))
		d.u64(uint64(math.Round(m.Distance * 1e6)))
	}
}

// sample is one completed execution of an operation in the measured window.
type sample struct {
	op  int // index into the operation list
	lat time.Duration
	sum answerSum
	err error
}

// cursor hands the operation list out to the clients, round after round. A
// new round starts only while the window is open, so every round that starts
// is completed and every operation is executed equally often: the sample a
// percentile ranks has the same make-up however fast the program is.
type cursor struct {
	mu    sync.Mutex
	next  int
	block int
	start time.Time
	dur   time.Duration // <= 0: exactly one round
}

func (c *cursor) take() (int, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.next > 0 && c.next%c.block == 0 && (c.dur <= 0 || time.Since(c.start) >= c.dur) {
		return 0, false
	}
	c.next++
	return c.next - 1, true
}

// window is the measured part of the end-to-end pass: a closed loop in which
// each client sends its next operation when the previous one completes. The
// clients share one cursor over the operation list and replay the list in
// rounds until dur has passed. It returns every execution and the wall-clock
// from the first send to the last reply.
func window(ctx context.Context, sys *system, ops []op, clients int, dur time.Duration) ([]sample, time.Duration) {
	cur := &cursor{block: len(ops), start: time.Now(), dur: dur}
	per := make([][]sample, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				i, ok := cur.take()
				if !ok {
					return
				}
				o := ops[i%len(ops)]
				t0 := time.Now()
				ms, stats, err := sys.call(ctx, c, o)
				lat := time.Since(t0)
				if err == nil && sys.served() && o.kind != opKNN && int(stats.Answers) != len(ms) {
					err = fmt.Errorf("%d matches streamed, done frame says %d", len(ms), stats.Answers)
				}
				per[c] = append(per[c], sample{op: i % len(ops), lat: lat, sum: sumOf(ms), err: err})
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(cur.start)
	var all []sample
	for _, p := range per {
		all = append(all, p...)
	}
	return all, elapsed
}

// reference replays every operation in-process on the workload's own handle
// and returns each one's answer sum and the digest over all of them.
func reference(ctx context.Context, sys *system, ops []op) ([]answerSum, string, error) {
	sums := make([]answerSum, len(ops))
	d := newDigest()
	for i, o := range ops {
		ms, _, err := sys.direct(ctx, o)
		if err != nil {
			return nil, "", fmt.Errorf("in-process operation %d: %w", i, err)
		}
		sums[i] = sumOf(ms)
		foldAnswers(d, ms)
	}
	return sums, d.String(), nil
}

// judge marks the executions that failed: an error, or answers that differ
// from the in-process answers of the same operation on the same handle.
func judge(res *result, samples []sample, ref []answerSum) []bool {
	failed := make([]bool, len(samples))
	for i, s := range samples {
		switch want := ref[s.op]; {
		case s.err != nil:
			failed[i] = true
			res.note("operation %d: %v", s.op, s.err)
		case s.sum != want:
			failed[i] = true
			res.note("operation %d: %d answers over loopback, %d in-process (or equal count, different content)", s.op, s.sum.n, want.n)
		}
	}
	return failed
}

// summarize turns the window's samples into the latency, throughput and
// error metrics: nearest-rank percentiles over every successful execution,
// and successful executions over the window's wall-clock. Collector pauses,
// evictions and whatever else the machine did during the window are in the
// numbers, as they are for a user.
//
// A failed execution counts in error_rate and nowhere else: it is no latency
// sample and no throughput.
func summarize(res *result, ops []op, samples []sample, failed []bool, elapsed time.Duration) {
	var all, knn, scan []float64
	for i, s := range samples {
		if failed[i] {
			res.Failed++
			continue
		}
		all = append(all, ms(s.lat))
		switch ops[s.op].kind {
		case opKNN:
			knn = append(knn, ms(s.lat))
		case opScan:
			scan = append(scan, ms(s.lat))
		}
	}
	res.Attempted = len(samples)
	res.Correct = res.Failed == 0 && len(all) > 0

	e := res.EndToEnd
	sorted := sortedCopy(all)
	e["query_p50_ms"] = percentileMetric(sorted, 50)
	e["query_p95_ms"] = percentileMetric(sorted, 95)
	e["throughput_qps"] = Metric{Value: float64(len(all)) / elapsed.Seconds(), Unit: "1/s", N: len(all)}
	if len(knn) > 0 {
		e["knn_p50_ms"] = percentileMetric(sortedCopy(knn), 50)
	}
	if len(scan) > 0 {
		e["scan_p50_ms"] = percentileMetric(sortedCopy(scan), 50)
	}
	e["error_rate"] = Metric{Value: float64(res.Failed) / float64(max(1, res.Attempted)), Unit: "ratio", N: res.Attempted}
}

// runEndToEnd is the pass whose numbers count: tracing off, set-up repeated
// for a stable setup_s, then the measured window, then the answer check.
func runEndToEnd(ctx context.Context, cfg config, sp spec) (res result, err error) {
	clients := cfg.clientsFor(sp)
	res = result{Workload: sp.name, Why: sp.why, Clients: clients, EndToEnd: map[string]Metric{}}

	var (
		sys    *system
		setups []float64
	)
	for r := 0; r < cfg.setups(); r++ {
		if sys != nil {
			if err := closeSystem(sys); err != nil {
				return res, err
			}
			runtime.GC() // each repetition starts from the same heap
		}
		dir, err := os.MkdirTemp(cfg.workdir, sp.name+"-")
		if err != nil {
			return res, err
		}
		t0 := time.Now()
		if sys, err = setup(ctx, cfg, sp, dir, clients); err != nil {
			os.RemoveAll(dir)
			return res, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer func() {
		if cerr := closeSystem(sys); err == nil {
			err = cerr
		}
	}()
	d, ops := sys.data, sys.ops
	res.InputDigest = inputDigest(d, ops)

	runtime.GC() // start the window without the build's garbage
	samples, elapsed := window(ctx, sys, ops, clients, time.Duration(cfg.seconds*float64(time.Second)))

	// What the process needs to keep serving: the resident set once the
	// collector has run and freed pages are back with the OS. The
	// high-water mark is reported too, but it follows the collector's timing
	// during the index builds and moves by 20% between identical runs.
	runtime.GC()
	debug.FreeOSMemory()
	servingRSS, err := statusMB("VmRSS")
	if err != nil {
		return res, err
	}

	ref, digest, err := reference(ctx, sys, ops)
	if err != nil {
		return res, err
	}
	res.AnswerDigest = digest
	summarize(&res, ops, samples, judge(&res, samples, ref), elapsed)
	if res.Failed == res.Attempted {
		return res, fmt.Errorf("no operation of %s succeeded", sp.name)
	}

	e := res.EndToEnd
	e["setup_s"] = Metric{Value: median(setups), Unit: "s", N: len(setups)}
	bytes, err := sys.indexBytes()
	if err != nil {
		return res, err
	}
	e["index_bytes_per_value"] = Metric{Value: float64(bytes) / float64(d.values()), Unit: "B", N: 1}
	e["serving_rss_mb"] = Metric{Value: servingRSS, Unit: "MB", N: 1}
	peak, err := statusMB("VmHWM")
	if err != nil {
		return res, err
	}
	e["peak_rss_mb"] = Metric{Value: peak, Unit: "MB", N: 1}
	return res, nil
}

// closeSystem shuts a system down and removes its directory.
func closeSystem(sys *system) error {
	err := sys.close()
	if rerr := os.RemoveAll(sys.dir); err == nil {
		err = rerr
	}
	return err
}

// statusMB reads a memory line of /proc/self/status, in MB. Each pass runs in
// a process of its own, so the numbers belong to one workload alone.
func statusMB(key string) (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("memory metrics need /proc: %w", err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, key+":"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no %s line in /proc/self/status", key)
}
