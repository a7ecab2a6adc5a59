package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"twsearch/seqdb"
)

// bruteChecks is how many range operations of the traced pass are compared
// with brute force.
const bruteChecks = 20

// runTraced is the pass that explains: one client replays the operation
// list untraced and then traced, with spans around the client call,
// the in-process call of the same operation and each shard leg; work
// counters come from the in-process call; direct probes time single layers.
// End-to-end metrics never come from this pass.
func runTraced(ctx context.Context, cfg config, sp spec, traceOut string) (res result, err error) {
	res = result{Workload: sp.name, Why: sp.why, Clients: 1, Layers: map[string]Metric{}}
	L := res.Layers

	dir, err := os.MkdirTemp(cfg.workdir, sp.name+"-traced-")
	if err != nil {
		return res, err
	}
	sys, err := setup(ctx, cfg, sp, dir, 1)
	if err != nil {
		os.RemoveAll(dir)
		return res, err
	}
	d, ops := sys.data, sys.ops
	defer func() {
		if cerr := closeSystem(sys); err == nil {
			err = cerr
		}
	}()
	res.InputDigest = inputDigest(d, ops)
	for name, secs := range sys.spans {
		L[name] = Metric{Value: secs, Unit: "s", N: 1}
	}
	cold, err := sys.coldFirst(ctx, ops[0])
	if err != nil {
		return res, err
	}
	L["seqdb.first_query_ms"] = Metric{Value: ms(cold), Unit: "ms", N: 1}

	n := float64(len(ops))

	// Untraced replay: the same client path as the measured window, one
	// client, so its counts repeat exactly for a seed.
	poolBefore, bytesBefore := sys.poolTotals(), sys.bytesOut()
	untraced := make([]float64, len(ops))
	var pagesRead uint64
	replayStart := time.Now()
	for i, o := range ops {
		t0 := time.Now()
		_, st, err := sys.call(ctx, 0, o)
		untraced[i] = ms(time.Since(t0))
		if err != nil {
			return res, fmt.Errorf("untraced operation %d: %w", i, err)
		}
		pagesRead += st.PagesRead
	}
	L["workload.calls_per_s"] = Metric{Value: n / time.Since(replayStart).Seconds(), Unit: "1/s", N: len(ops)}
	L["workload.call_ms_p50"] = percentileMetric(sortedCopy(untraced), 50)
	L["workload.call_ms_p95"] = percentileMetric(sortedCopy(untraced), 95)
	if sys.served() {
		pool := sys.poolTotals()
		hits, misses := pool.Hits-poolBefore.Hits, pool.Misses-poolBefore.Misses
		L["storage.pages_read"] = Metric{Value: float64(pagesRead) / n, Unit: "count", N: len(ops)}
		if hits+misses > 0 {
			L["storage.pool_hit_ratio"] = Metric{Value: float64(hits) / float64(hits+misses), Unit: "ratio", N: int(hits + misses)}
		}
		L["storage.pool_evictions"] = Metric{Value: float64(pool.Evictions-poolBefore.Evictions) / n, Unit: "count", N: len(ops)}
		L["serving.bytes_out_per_query"] = Metric{Value: float64(sys.bytesOut()-bytesBefore) / n, Unit: "B", N: len(ops)}
	}

	// Traced replay.
	brute, err := newBruteForce(d, max(sp.index.Window, sp.vindex.Window))
	if err != nil {
		return res, err
	}
	tr := newTracer()
	var (
		traced, servingSelf, direct, engine, seqdbSelf []float64
		seqdbSpans                                     []int
		knn, scan, legMax, legSum, mergeSelf           []float64
		counted                                        seqdb.SearchStats
		countedOps, bruteDone, bruteNext               int
		recorded                                       []seqdb.Match
	)
	golden := newDigest()
	for i, o := range ops {
		res.Attempted++
		root := tr.begin(i, 0, "op."+o.kind.String())
		var got []seqdb.Match
		var clientDur time.Duration
		if sys.served() {
			c := tr.begin(i, root, "client."+o.kind.String())
			got, _, err = sys.call(ctx, 0, o)
			tr.end(c)
			if err != nil {
				res.Failed++
				res.note("traced operation %d over loopback: %v", i, err)
				tr.end(root)
				continue
			}
			clientDur = tr.dur(c)
			traced = append(traced, ms(clientDur))
		}
		s := tr.begin(i, root, "seqdb."+o.kind.String())
		want, st, derr := sys.direct(ctx, o)
		tr.end(s)
		if derr != nil {
			return res, fmt.Errorf("in-process operation %d: %w", i, derr)
		}
		dur := tr.dur(s)
		if !sys.served() {
			got = want
			traced = append(traced, ms(dur))
		} else {
			tr.synthetic(s, "core.search", st.Elapsed)
			engine = append(engine, ms(st.Elapsed))
			seqdbSpans = append(seqdbSpans, s)
			// What the serving stack adds is the loopback call minus the
			// in-process call of the same operation. The done frame's
			// Elapsed cannot stand in for the latter: the server encodes
			// and writes match frames inside the engine's visitor.
			servingSelf = append(servingSelf, ms(clientDur-dur))
		}
		direct = append(direct, ms(dur))
		switch o.kind {
		case opKNN:
			knn = append(knn, ms(dur))
		case opScan:
			scan = append(scan, ms(dur))
		default:
			// Work counters are kept for range searches only: a sharded
			// kNN's rounds depend on which shard reaches the shared bound
			// first, so its counts do not repeat.
			counted.Add(st)
			countedOps++
		}
		if sys.sdb != nil {
			var longest, total time.Duration
			for j := 0; j < sys.sdb.Shards(); j++ {
				l := tr.begin(i, root, fmt.Sprintf("shard.leg%d", j))
				_, _, lerr := directOn(ctx, sys.sdb.Shard(j), o, sys.opts)
				tr.end(l)
				if lerr != nil {
					return res, fmt.Errorf("shard %d leg of operation %d: %w", j, i, lerr)
				}
				longest = max(longest, tr.dur(l))
				total += tr.dur(l)
			}
			legMax = append(legMax, ms(longest))
			legSum = append(legSum, ms(total))
			mergeSelf = append(mergeSelf, ms(dur-longest))
		}
		tr.end(root)

		foldAnswers(golden, want)
		if sumOf(got) != sumOf(want) {
			res.Failed++
			res.note("operation %d: %d answers over loopback, %d in-process (or equal count, different content)", i, len(got), len(want))
		} else if o.kind == opRange && bruteDone < bruteChecks && i >= bruteNext {
			bruteDone++
			bruteNext = i + max(1, len(ops)/bruteChecks)
			if berr := brute.check(o, want); berr != nil {
				res.Failed++
				res.note("operation %d against brute force: %v", i, berr)
			}
		}
		if len(recorded) < 4096 {
			recorded = append(recorded, want[:min(len(want), 64)]...)
		}
	}
	res.AnswerDigest = golden.String()
	res.Correct = res.Failed == 0
	if traceOut != "" {
		if err := tr.write(traceOut); err != nil {
			return res, err
		}
	}

	self := selfTimes(tr.spans)
	for _, id := range seqdbSpans {
		seqdbSelf = append(seqdbSelf, ms(time.Duration(self[id])))
	}
	p50 := func(name string, vs []float64) {
		if len(vs) > 0 {
			L[name] = percentileMetric(sortedCopy(vs), 50)
		}
	}
	p50("serving.self_ms_p50", servingSelf)
	p50("seqdb.search_ms_p50", direct)
	p50("core.search_ms_p50", engine)
	p50("seqdb.self_ms_p50", seqdbSelf)
	p50("seqdb.knn_ms_p50", knn)
	p50("seqdb.scan_ms_p50", scan)
	p50("shard.leg_ms_max", legMax)
	p50("shard.leg_ms_sum", legSum)
	p50("shard.merge_self_ms_p50", mergeSelf)
	L["trace.spans"] = Metric{Value: float64(len(tr.spans)), Unit: "count", N: len(ops)}
	if base := median(untraced); base > 0 && len(traced) > 0 {
		L["trace.overhead_pct"] = Metric{Value: (median(traced) - base) / base * 100, Unit: "%", N: len(traced)}
	}
	if sys.served() {
		m := sys.srv.Metrics()
		L["server.errors"] = Metric{Value: float64(m.Errors), Unit: "count", N: int(m.Requests)}
		L["server.overloaded"] = Metric{Value: float64(m.Overloaded), Unit: "count", N: int(m.Requests)}
		L["server.deadlines"] = Metric{Value: float64(m.Deadlines), Unit: "count", N: int(m.Requests)}
		L["server.matches_streamed"] = Metric{Value: float64(m.MatchesStreamed), Unit: "count", N: int(m.Requests)}
	}
	if countedOps > 0 && sys.served() {
		c := float64(countedOps)
		count := func(name string, v uint64) { L[name] = Metric{Value: float64(v) / c, Unit: "count", N: countedOps} }
		count("core.nodes_visited", counted.NodesVisited)
		count("core.filter_cells", counted.FilterCells)
		count("core.post_cells", counted.PostCells)
		count("core.lb_cells", counted.LBCells)
		count("core.envelope_pruned", counted.EnvelopePruned)
		count("core.candidates", counted.Candidates)
		count("core.false_alarms", counted.FalseAlarms)
		count("core.answers", counted.Answers)
		if counted.Candidates > 0 {
			L["core.answers_per_candidate"] = Metric{Value: float64(counted.Answers) / float64(counted.Candidates), Unit: "ratio", N: countedOps}
		}
		if counted.LBCells > 0 {
			L["core.pruned_per_lb_cell"] = Metric{Value: float64(counted.EnvelopePruned) / float64(counted.LBCells), Unit: "ratio", N: countedOps}
		}
	}

	if err := sys.probes(cfg, d, L, recorded); err != nil {
		return res, err
	}
	if sys.db != nil {
		attribute(L, sp.index.Window > 0)
	}
	return res, nil
}

// probes runs the direct layer probes and the size metrics.
func (s *system) probes(cfg config, d *dataset, L map[string]Metric, recorded []seqdb.Match) error {
	bytes, err := s.indexBytes()
	if err != nil {
		return err
	}
	L["disktree.file_pages"] = Metric{Value: float64(bytes) / pageSize, Unit: "count", N: 1}
	if s.vdb != nil {
		return nil // the scalar layers' probes do not apply to trajectories
	}
	poolPages := s.sp.index.PoolPages
	if poolPages <= 0 {
		poolPages = 256 // the library's default, stated here to report the ratio
	}
	L["storage.pool_pages"] = Metric{Value: float64(poolPages), Unit: "count", N: 1}

	// Fixed iteration counts, scaled down with -scale so smoke runs stay quick.
	iters := func(n int) int { return max(1, int(float64(n)*min(1, cfg.scale))) }
	for name, m := range probeDTW(d.seqs[0], iters(2000)) {
		L[name] = m
	}
	for name, m := range probeWire(recorded, iters(50)) {
		L[name] = m
	}
	build, err := probeBuild(d.seqs, string(s.sp.index.Method), s.sp.index.Categories, s.sp.index.Sparse, cfg.encoding, s.dir)
	if err != nil {
		return err
	}
	for name, m := range build {
		L[name] = m
	}
	files, err := s.treeFiles()
	if err != nil {
		return err
	}
	backend := cfg.backend
	decode, nodes, err := probeDecode(files[0], backend, poolPages, iters(100000))
	if err != nil {
		return err
	}
	L["disktree.decode_ns_per_node"] = decode
	st, err := os.Stat(files[0])
	if err != nil {
		return err
	}
	L["disktree.bytes_per_node"] = Metric{Value: float64(st.Size()) / float64(nodes), Unit: "B", N: int(nodes)}
	views, err := probeViews(files[0], backend, poolPages, iters(200000))
	if err != nil {
		return err
	}
	for name, m := range views {
		L[name] = m
	}
	return nil
}

// attribute splits the engine's median time into estimates, until the
// engine has phase timers of its own: cells and nodes (means per operation)
// times the probed unit costs, and what is left.
func attribute(L map[string]Metric, banded bool) {
	engine, ok := L["core.search_ms_p50"]
	if !ok || L["disktree.decode_ns_per_node"].Value == 0 {
		return
	}
	filterCost := L["dtw.addrow_interval_ns_per_cell"].Value
	if banded {
		filterCost = L["dtw.addrow_banded_ns_per_cell"].Value
	}
	est := func(name string, count, ns float64) float64 {
		v := count * ns / 1e6
		L[name] = Metric{Value: v, Unit: "ms", N: engine.N}
		return v
	}
	sum := est("core.filter_dp_ms_est", L["core.filter_cells"].Value, filterCost) +
		est("core.post_dp_ms_est", L["core.post_cells"].Value, L["dtw.addrow_value_ns_per_cell"].Value) +
		est("core.decode_ms_est", L["core.nodes_visited"].Value, L["disktree.decode_ns_per_node"].Value)
	L["core.unattributed_ms"] = Metric{Value: engine.Value - sum, Unit: "ms", N: engine.N}
}

// coldFirst times the first operation on a freshly opened handle.
func (s *system) coldFirst(ctx context.Context, o op) (time.Duration, error) {
	cold := &system{sp: s.sp, dir: s.dir, opts: s.opts}
	var err error
	switch {
	case s.vdb != nil:
		cold.vdb, err = seqdb.OpenVector(s.dir)
	case s.sdb != nil:
		cold.sdb, err = seqdb.OpenShardedWith(filepath.Join(s.dir, shardsDir), s.open)
	default:
		cold.db, err = seqdb.OpenWith(s.dir, s.open)
	}
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	_, _, err = cold.direct(ctx, o)
	d := time.Since(t0)
	if cerr := cold.close(); err == nil {
		err = cerr
	}
	return d, err
}

// poolTotals sums the buffer-pool counters of every index stripe and shard.
func (s *system) poolTotals() seqdb.PoolShardStats {
	var stats []seqdb.IndexPoolStats
	switch {
	case s.db != nil:
		stats = s.db.PoolStats()
	case s.sdb != nil:
		stats = s.sdb.PoolStats()
	}
	var t seqdb.PoolShardStats
	for _, ix := range stats {
		for _, sh := range ix.Shards {
			t.Hits += sh.Hits
			t.Misses += sh.Misses
			t.Evictions += sh.Evictions
		}
	}
	return t
}

func (s *system) bytesOut() int64 {
	if s.ln == nil {
		return 0
	}
	return s.ln.out.Load()
}
