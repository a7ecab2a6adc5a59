package main

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
)

// This file is the benchmark's own input generator. It deliberately does not
// use internal/workload: later changes may edit that package, and the
// benchmark's inputs must stay the same across them. Every random choice
// flows from the seed through math/rand's seeded generator, whose stream is
// stable across Go releases, so a seed names one dataset and one operation
// list for good (bench_test.go pins both for seed 1).

// opKind is the shape of one operation.
type opKind uint8

const (
	opRange opKind = iota // range search through the index
	opKNN                 // k-nearest-neighbour search through the index
	opScan                // index-free sequential scan
)

func (k opKind) String() string {
	switch k {
	case opKNN:
		return "knn"
	case opScan:
		return "scan"
	}
	return "search"
}

// op is one operation of a workload. Scalar workloads fill q, the
// trajectory workload fills qv.
type op struct {
	kind opKind
	q    []float64
	qv   [][]float64
	eps  float64
	k    int
}

// dataset is what a workload ingests: scalar sequences or trajectories.
type dataset struct {
	ids   []string
	seqs  [][]float64   // scalar workloads
	trajs [][][]float64 // trajectory workload
}

// values returns the number of stored scalar values (points × dimension for
// trajectories) — the denominator of index_bytes_per_value.
func (d *dataset) values() int {
	n := 0
	for _, s := range d.seqs {
		n += len(s)
	}
	for _, t := range d.trajs {
		for _, p := range t {
			n += len(p)
		}
	}
	return n
}

// Sub-stream tags keep the data and operation generators independent: adding
// an operation never shifts the dataset.
const (
	streamData = 1
	streamOps  = 2
)

func newRand(seed int64, stream int64) *rand.Rand {
	return rand.New(rand.NewSource(seed*1000003 + stream))
}

// spreadOver returns the i'th point of a Kronecker sequence on [0,1): the
// first n points cover the interval evenly for every n, in scattered order.
// The generators use it wherever a draw decides how expensive a query is —
// price levels, start places, which sequence a query is cut from — so that
// every seed has the same mix and only the walks differ. With plain random
// draws the cost of a 200-operation list moved by 7% (interquartile) from
// seed to seed; a seed is meant to guard against tuning to one input, not to
// change the workload.
func spreadOver(i int, alpha, offset float64) float64 {
	_, f := math.Modf((float64(i)+0.5)*alpha + offset)
	return f
}

const (
	alpha1 = 0.6180339887498949 // 1/φ
	alpha2 = 0.7548776662466927 // 1/plastic number, the 2-D companion
)

// stockWalks generates n stock-like random walks of about avgLen values. The
// start prices fill three bands (20% under $30, 50% $30–60, 30% above, the
// mix the paper reports for its S&P 500 data) evenly; daily steps are
// Gaussian, proportional to the start price, rounded to cents and floored at
// $1.
func stockWalks(seed int64, n, avgLen int) *dataset {
	rng := newRand(seed, streamData)
	d := &dataset{}
	jitter := avgLen / 4
	for i := 0; i < n; i++ {
		var start float64
		switch u := spreadOver(i, alpha1, 0); {
		case u < 0.20:
			start = 5 + u/0.20*23
		case u < 0.70:
			start = 32 + (u-0.20)/0.50*26
		default:
			start = 65 + (u-0.70)/0.30*85
		}
		length := avgLen - jitter + rng.Intn(2*jitter+1)
		vals := make([]float64, length)
		price := start
		sigma := math.Max(0.05, 0.02*start)
		for j := range vals {
			price += rng.NormFloat64() * sigma
			if price < 1 {
				price = 1
			}
			vals[j] = math.Round(price*100) / 100
		}
		d.ids = append(d.ids, fmt.Sprintf("stock-%05d", i))
		d.seqs = append(d.seqs, vals)
	}
	return d
}

// trajectories generates n two-dimensional random walks of exactly points
// samples, unit-variance steps per axis, from starts that fill a 100×100
// field evenly.
func trajectories(seed int64, n, points int) *dataset {
	rng := newRand(seed, streamData)
	d := &dataset{}
	for i := 0; i < n; i++ {
		x, y := spreadOver(i, alpha1, 0)*100, spreadOver(i, alpha2, 0)*100
		t := make([][]float64, points)
		for j := range t {
			x += rng.NormFloat64()
			y += rng.NormFloat64()
			t[j] = []float64{math.Round(x*100) / 100, math.Round(y*100) / 100}
		}
		d.ids = append(d.ids, fmt.Sprintf("traj-%05d", i))
		d.trajs = append(d.trajs, t)
	}
	return d
}

// opMix describes a workload's operation list.
type opMix struct {
	count     int       // operations in the list
	qlen      int       // average query length; lengths are uniform in qlen±qlen/4
	eps       []float64 // range and scan thresholds, used in rotation
	knnShare  float64   // fraction of operations that are SearchKNN
	scanShare float64   // fraction that are SeqScan
	k         int       // neighbours per kNN operation
	noise     float64   // per-coordinate Gaussian noise added to trajectory queries
}

// genOps cuts count queries out of the data and assigns each an operation
// kind and threshold. The sequences queried are spread evenly over the
// dataset and the kinds evenly over the list (each from a seed-drawn
// offset); the place within the sequence and the length are drawn per
// operation. The list is already in its fixed shuffled order.
func genOps(seed int64, d *dataset, mix opMix) []op {
	rng := newRand(seed, streamOps)
	ops := make([]op, 0, mix.count)
	spread := mix.qlen / 4
	offset, kindOffset := rng.Float64(), rng.Float64()
	pick := func(i, n int) int { return int(spreadOver(i, alpha1, offset) * float64(n)) }
	for i := 0; i < mix.count; i++ {
		o := op{kind: opRange, eps: mix.eps[i%len(mix.eps)]}
		switch r := spreadOver(i, alpha2, kindOffset); {
		case r < mix.knnShare:
			o.kind, o.k, o.eps = opKNN, mix.k, 0
		case r < mix.knnShare+mix.scanShare:
			o.kind, o.eps = opScan, mix.eps[0]
		}
		n := mix.qlen - spread + rng.Intn(2*spread+1)
		if d.trajs != nil {
			t := d.trajs[pick(i, len(d.trajs))]
			n = min(n, len(t))
			start := rng.Intn(len(t) - n + 1)
			o.qv = make([][]float64, n)
			for j := range o.qv {
				p := t[start+j]
				o.qv[j] = []float64{p[0] + rng.NormFloat64()*mix.noise, p[1] + rng.NormFloat64()*mix.noise}
			}
		} else {
			s := d.seqs[pick(i, len(d.seqs))]
			n = min(n, len(s))
			start := rng.Intn(len(s) - n + 1)
			o.q = append([]float64(nil), s[start:start+n]...)
		}
		ops = append(ops, o)
	}
	return ops
}

// digest is a running FNV-1a over numbers, used to pin inputs and answers.
type digest struct{ h uint64 }

func newDigest() *digest { return &digest{h: 14695981039346656037} }

func (d *digest) u64(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	for _, c := range b {
		d.h ^= uint64(c)
		d.h *= 1099511628211
	}
}

func (d *digest) f64(v float64) { d.u64(math.Float64bits(v)) }

func (d *digest) String() string { return fmt.Sprintf("%016x", d.h) }

// inputDigest folds a dataset and an operation list into one pinned value.
func inputDigest(d *dataset, ops []op) string {
	h := newDigest()
	for _, s := range d.seqs {
		h.u64(uint64(len(s)))
		for _, v := range s {
			h.f64(v)
		}
	}
	for _, t := range d.trajs {
		h.u64(uint64(len(t)))
		for _, p := range t {
			h.f64(p[0])
			h.f64(p[1])
		}
	}
	for _, o := range ops {
		h.u64(uint64(o.kind))
		h.f64(o.eps)
		h.u64(uint64(o.k))
		for _, v := range o.q {
			h.f64(v)
		}
		for _, p := range o.qv {
			h.f64(p[0])
			h.f64(p[1])
		}
	}
	return h.String()
}
