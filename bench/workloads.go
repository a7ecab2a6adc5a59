package main

import (
	"fmt"
	"runtime"

	"twsearch/seqdb"
)

// spec is one workload: what is stored, how it is indexed and opened, and
// which operations run against it. Only what defines the traffic is set;
// encoding, backend, pool size and server configuration stay at the
// library's zero values, so the benchmark measures what a user gets.
type spec struct {
	name string
	why  string

	// Workloads with equal sizes and operation mix share their dataset and
	// operation list: the generators see nothing else.
	trajectory bool
	sequences  int // stock walks, or trajectories
	length     int // average walk length, or exact points per trajectory

	index  seqdb.IndexSpec
	vindex seqdb.VectorIndexSpec
	// poolBackend opens through seqdb.ParseBackend("pool") explicitly, so
	// the workload keeps its meaning if the library's default backend moves.
	poolBackend bool
	shards      int // > 0 partitions the database and mounts it sharded

	// mix is the operation list. The measured window replays the whole list
	// round after round, and every operation is also replayed in-process for
	// the answer check, so the list is short: 200 operations keep ten
	// samples beyond the 95th percentile.
	mix opMix
	// multiClient drives several closed-loop clients instead of one; see
	// clientsFor.
	multiClient bool
}

const (
	dbName    = "bench"
	indexName = "ix"
)

// workloads is the canonical list. Data sizes are what three set-ups, a 10 s
// window and the answer check can afford inside the driver's time cap; the
// README gives each one's file-to-pool ratio.
var workloads = []spec{
	{
		name:      "selective",
		why:       "about 20 answers per query on a file 11x the default pool: node decode, envelope gates and the filter DP do the work",
		sequences: 1090, length: 232,
		index: seqdb.IndexSpec{Method: seqdb.MethodMaxEntropy, Categories: 200, Window: 2},
		mix:   opMix{count: 200, qlen: 40, eps: []float64{4}},
	},
	{
		name:      "broad",
		why:       "thousands of answers per query on a file half the pool: exact verification, merge, wire and server do the work",
		sequences: 273, length: 232,
		index: seqdb.IndexSpec{Method: seqdb.MethodMaxEntropy, Categories: 20, Sparse: true},
		mix:   opMix{count: 200, qlen: 20, eps: []float64{9}},
	},
	{
		name:      "lowmem",
		why:       "the selective data and operations through a 64-page pool, 2% of the file: eviction, pread and stripe contention do the work",
		sequences: 1090, length: 232,
		index:       seqdb.IndexSpec{Method: seqdb.MethodMaxEntropy, Categories: 200, Window: 2, PoolPages: 64},
		poolBackend: true,
		mix:         opMix{count: 200, qlen: 40, eps: []float64{4}},
		multiClient: true,
	},
	{
		name:      "mixed",
		why:       "range, kNN and scan on a 2-shard mount: scatter-gather, ordered merge, kNN expansion, the index-free scan, admission",
		sequences: 546, length: 232,
		index:       seqdb.IndexSpec{Method: seqdb.MethodMaxEntropy, Categories: 60, Sparse: true, Window: 4},
		shards:      2,
		mix:         opMix{count: 200, qlen: 20, eps: []float64{4, 8}, knnShare: 0.15, scanShare: 0.05, k: 10},
		multiClient: true,
	},
	{
		name:       "trajectory",
		why:        "2-D trajectories in-process: the only workload that runs multivar, and the one a core-only change must not move",
		trajectory: true, sequences: 800, length: 200,
		vindex: seqdb.VectorIndexSpec{CatsPerDim: 12, Window: 3},
		mix:    opMix{count: 200, qlen: 24, eps: []float64{20}, noise: 0.25},
	},
}

func findWorkload(name string) (spec, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q", name)
}

// config is one run's settings: the seed and window, plus the exploration
// overrides. Any override makes the run non-canonical.
type config struct {
	seed    int64
	seconds float64
	workdir string
	// smoke is the tests' tiny run: a twentieth of the data, 50 operations
	// replayed once, one set-up. It is no exploration flag, and like one it
	// makes the run non-canonical.
	smoke bool

	scale       float64
	clients     int
	shards      int
	parallelism int
	encoding    string
	backend     string
	envelopes   string
}

// canonical reports whether the run uses no exploration override.
func (c config) canonical() bool {
	return !c.smoke && c.scale == 1 && c.clients == 0 && c.shards == 0 && c.parallelism == 0 &&
		c.encoding == "" && c.backend == "" && c.envelopes == ""
}

// setups is how often the end-to-end pass sets a workload up; setup_s is the
// median.
func (c config) setups() int {
	if c.smoke {
		return 1
	}
	return 3
}

// scaled applies -scale, -shards and -smoke to a workload's sizes.
func (c config) scaled(sp spec) spec {
	scale := func(n, floor int) int { return max(floor, int(float64(n)*c.scale+0.5)) }
	sp.sequences = scale(sp.sequences, 8)
	if c.smoke {
		sp.mix.count = min(sp.mix.count, 50)
	}
	if c.shards > 0 && sp.shards > 0 {
		sp.shards = c.shards
	}
	return sp
}

// clientsFor returns how many closed-loop clients drive a workload: one, or
// min(nproc, 4) for a multi-client workload, so never more goroutines issue
// load than there are CPUs.
func (c config) clientsFor(sp spec) int {
	if sp.trajectory {
		return 1 // a VectorDB is not safe for concurrent use
	}
	if c.clients > 0 {
		return c.clients
	}
	if sp.multiClient {
		return min(runtime.NumCPU(), 4)
	}
	return 1
}

// generate makes a workload's inputs from the seed alone.
func generate(seed int64, sp spec) (*dataset, []op) {
	var d *dataset
	if sp.trajectory {
		d = trajectories(seed, sp.sequences, sp.length)
	} else {
		d = stockWalks(seed, sp.sequences, sp.length)
	}
	return d, genOps(seed, d, sp.mix)
}
