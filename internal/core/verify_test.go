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
// starts it was pointed at, what first-element bound it returned for each,
// and whether a row was ever grown at a start whose bound exceeded eps.
type verifySpy struct {
	*scalarKernel
	eps             float64
	starts, past    int
	rows, deadGrown int
	dead            bool
	wrongBound      int
}

func (k *verifySpy) PostReset(seq, start int) float64 {
	b := k.scalarKernel.PostReset(seq, start)
	if b != dtw.Base(k.data.Values(seq)[start], k.q[0]) {
		k.wrongBound++
	}
	k.starts++
	k.dead = b > k.eps
	if !k.dead {
		k.past++
	}
	return b
}

func (k *verifySpy) PostAddRow(pos int) (dist, minDist float64) {
	k.rows++
	if k.dead {
		k.deadGrown++
	}
	return k.scalarKernel.PostAddRow(pos)
}

// TestVerificationCostsItsAnswers pins the three places the verification
// pass stopped doing work no answer needs, on a sparse tree with long runs
// where one path crosses several qualifying edges: (1) the subtree under a
// qualifying path is collected once, where the descent stops, so Candidates
// is one per verified start — before, it was one per leaf, shift and
// qualifying edge above, more than three times as many here — and the
// parallel frontier hands the deferred collect to its tasks (many of the
// one-element query's paths qualify on the frontier's own edges and on no
// row below), so the count and the answers are the same with 1, 2 and 4
// workers; (2) a start whose first
// element alone is further than eps from q[0] grows no row; (3) the answers
// are still exactly the sequential scan's.
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
		// perEdge is Candidates of this search at the commit before
		// deferred collection crossed edges: every leaf re-emitted by each
		// qualifying edge above it.
		perEdge uint64
	}{
		{[]float64{8, 8, 9, 12, 12, 11, 16, 16}, 6, 3639},
		{[]float64{8}, 2, 3961},
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
				t.Logf("|Q|=%d: candidates %d (per edge: %d), starts %d, past the first element %d, rows %d, answers %d",
					len(c.q), st.Candidates, c.perEdge, spy.starts, spy.past, spy.rows, st.Answers)
			} else if exactStats(st) != exactStats(serial) {
				t.Errorf("|Q|=%d par=%d: counters %v, serial %v", len(c.q), par, exactStats(st), exactStats(serial))
			}
			if st.Candidates != uint64(spy.starts) {
				t.Errorf("|Q|=%d par=%d: %d candidates for %d verified starts, want one emission per start", len(c.q), par, st.Candidates, spy.starts)
			}
			if 3*st.Candidates > c.perEdge {
				t.Errorf("|Q|=%d par=%d: %d candidates, want at most a third of the per-edge %d (three nested qualifying edges)", len(c.q), par, st.Candidates, c.perEdge)
			}
			if spy.wrongBound != 0 {
				t.Errorf("|Q|=%d par=%d: %d first-element bounds are not D_base(q[0], s[start])", len(c.q), par, spy.wrongBound)
			}
			if spy.deadGrown != 0 {
				t.Errorf("|Q|=%d par=%d: %d rows grown at starts whose first element is beyond eps", len(c.q), par, spy.deadGrown)
			}
			if spy.past == spy.starts || spy.past == 0 {
				t.Errorf("|Q|=%d par=%d: %d of %d starts pass the first-element test: the fixture does not exercise it", len(c.q), par, spy.past, spy.starts)
			}
		}
	}
}
