package core

import (
	"context"
	"math/rand"
	"path/filepath"
	"testing"

	"twsearch/internal/categorize"
	"twsearch/internal/dtw"
	"twsearch/internal/sequence"
)

// plateauDataset is sequences of noisy plateaus — long runs of one category
// — over a handful of levels, so a sparse tree over them has long first runs
// and deep paths shared by many suffixes.
func plateauDataset(rng *rand.Rand, seqs, length int) *sequence.Dataset {
	data := sequence.NewDataset()
	for i := 0; i < seqs; i++ {
		vals := make([]float64, 0, length)
		for len(vals) < length {
			level := float64(4 * rng.Intn(5))
			for run := 1 + rng.Intn(9); run > 0 && len(vals) < length; run-- {
				vals = append(vals, level+float64(rng.Intn(3)-1))
			}
		}
		data.MustAdd(sequence.Sequence{ID: string(rune('a' + i)), Values: vals})
	}
	return data
}

// verifySpy wraps a scalar kernel and watches the verification pass: which
// starts it was pointed at, how many of them pass the first-element test,
// and whether a start dead on its first element was charged a cell.
type verifySpy struct {
	*scalarKernel
	eps                float64
	starts, past, dead int
	deadCharged        int
}

func (k *verifySpy) Verify(seq, start, end int, hit func(end int, dist float64)) {
	_, before := k.scalarKernel.Cells()
	k.scalarKernel.Verify(seq, start, end, hit)
	_, after := k.scalarKernel.Cells()
	k.starts++
	if dtw.Base(k.data.Values(seq)[start], k.q[0]) > k.eps {
		k.dead++
		if after != before {
			k.deadCharged++
		}
	} else {
		k.past++
	}
}

// TestVerificationCostsItsAnswers pins what the verification pass costs, on
// a sparse tree with long runs where one path crosses several qualifying
// edges: (1) every start is emitted once — the subtree under a qualifying
// path is collected once, where the descent stops, and a reached leaf hands
// over all its starts itself — so Candidates is one per verified start, one
// kernel call each, with the same count and answers at 1, 2 and 4 workers
// (the parallel frontier hands the deferred collect to its tasks); (2) a
// start whose first element alone is further than eps from q[0] costs no
// cell; (3) the answers are still exactly the sequential scan's; (4) the
// exact cells that replace a reached leaf's interval rows are no more than
// those rows: filter and verification cells together stay within 1% of what
// this search cost when leaves were filtered. On these long runs every
// shifted start is verified on its own, so the two come out even (32273 →
// 32288 and 2911 → 2882 cells); on the benchmark's broad workload the total
// halves (815k → 375k per query).
func TestVerificationCostsItsAnswers(t *testing.T) {
	data := plateauDataset(rand.New(rand.NewSource(2407)), 24, 150)
	ix, err := Build(data, filepath.Join(t.TempDir(), "plateau.twt"),
		Options{Kind: categorize.KindMaxEntropy, Categories: 5, Sparse: true})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	inner := ix.Engine.newKernel
	ix.Engine.newKernel = func() Kernel { return &verifySpy{scalarKernel: inner().(*scalarKernel)} }

	for _, c := range []struct {
		q   []float64
		eps float64
		// leafRows is FilterCells + PostCells of this search at the commit
		// before leaves were verified instead of filtered.
		leafRows uint64
	}{
		{[]float64{8, 8, 9, 12, 12, 11, 16, 16}, 6, 32273},
		{[]float64{8}, 2, 2911},
	} {
		want, _, err := SeqScan(data, c.q, c.eps, -1)
		if err != nil {
			t.Fatal(err)
		}
		if len(want) == 0 {
			t.Fatalf("|Q|=%d: no answers, the fixture verifies nothing", len(c.q))
		}
		var serial SearchStats
		for _, par := range []int{1, 2, 4} {
			var spy *verifySpy
			got, st, err := ix.Run(context.Background(), func(k Kernel, filterWindow, window int, envelopes bool) {
				s := k.(*verifySpy)
				*s = verifySpy{scalarKernel: s.scalarKernel, eps: c.eps}
				s.bind(c.q, filterWindow, window, c.eps, envelopes)
				if spy == nil {
					spy = s // Run binds the driver's kernel first, the workers' after
				}
			}, c.eps, nil, SearchOptions{Parallelism: par})
			if err != nil {
				t.Fatalf("|Q|=%d par=%d: %v", len(c.q), par, err)
			}
			if !matchesBitIdentical(got, want) {
				t.Fatalf("|Q|=%d par=%d: index %d matches, scan %d", len(c.q), par, len(got), len(want))
			}
			if par == 1 {
				serial = st
				t.Logf("|Q|=%d: candidates %d, starts %d, past the first element %d, cells %d+%d (leaf rows: %d), answers %d",
					len(c.q), st.Candidates, spy.starts, spy.past, st.FilterCells, st.PostCells, c.leafRows, st.Answers)
			} else if exactStats(st) != exactStats(serial) {
				t.Errorf("|Q|=%d par=%d: counters %v, serial %v", len(c.q), par, exactStats(st), exactStats(serial))
			}
			if st.Candidates != uint64(spy.starts) {
				t.Errorf("|Q|=%d par=%d: %d candidates for %d verified starts, want one emission and one call per start", len(c.q), par, st.Candidates, spy.starts)
			}
			if cells := st.FilterCells + st.PostCells; 100*cells > 101*c.leafRows {
				t.Errorf("|Q|=%d par=%d: %d filter + verification cells, want at most 1%% over the %d of filtered leaves", len(c.q), par, cells, c.leafRows)
			}
			if spy.deadCharged != 0 {
				t.Errorf("|Q|=%d par=%d: %d starts dead on their first element were charged cells", len(c.q), par, spy.deadCharged)
			}
			if spy.past == 0 || spy.dead == 0 {
				t.Errorf("|Q|=%d par=%d: %d of %d starts pass the first-element test: the fixture does not exercise it", len(c.q), par, spy.past, spy.starts)
			}
		}
	}
}
