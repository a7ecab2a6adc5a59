package core

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"slices"
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

// verifySpy wraps a scalar kernel and watches admission and the
// verification pass: how many offered starts Dead dismissed, which starts
// Verify was pointed at, and whether one of those was dead on its first
// element after all.
type verifySpy struct {
	*scalarKernel
	eps                  float64
	dead, starts         int
	deadVerified, misled int
}

func (k *verifySpy) Dead(seq, start int) bool {
	dead := k.scalarKernel.Dead(seq, start)
	if dead != (dtw.Base(k.data.Values(seq)[start], k.q[0]) > k.eps) {
		k.misled++
	}
	if dead {
		k.dead++
	}
	return dead
}

func (k *verifySpy) Verify(seq, start, end int, hit func(end int, dist float64)) {
	k.starts++
	if dtw.Base(k.data.Values(seq)[start], k.q[0]) > k.eps {
		k.deadVerified++
	}
	k.scalarKernel.Verify(seq, start, end, hit)
}

// TestVerificationCostsItsAnswers pins what the verification pass costs, on
// a sparse tree with long runs where one path crosses several qualifying
// edges: (1) every start is emitted once — the subtree under a qualifying
// path is collected once, where the descent stops, and a reached leaf hands
// over all its starts itself — so Candidates is one per offered start, and
// each one is either dismissed by Dead or verified by one kernel call; (2) a
// start whose first element alone is further than eps from q[0] never
// reaches Verify, and Dead says so by the base distance; (3) the answers
// are still exactly the sequential scan's; (4) the exact cells that replace
// a reached leaf's interval rows are no more than those rows: filter and
// verification cells together stay within 1% of what this search cost when
// leaves were filtered. On these long runs every shifted start is verified
// on its own, so the two come out even (32273 → 32288 and 2911 → 2882
// cells); on the benchmark's broad workload the total halves (815k → 375k
// per query).
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
		var spy *verifySpy
		got, st, err := ix.Run(context.Background(), func(k Kernel, filterWindow, window int, envelopes bool) {
			spy = k.(*verifySpy)
			*spy = verifySpy{scalarKernel: spy.scalarKernel, eps: c.eps}
			spy.bind(c.q, filterWindow, window, c.eps, envelopes)
		}, c.eps, nil)
		if err != nil {
			t.Fatalf("|Q|=%d: %v", len(c.q), err)
		}
		if !matchesBitIdentical(got, want) {
			t.Fatalf("|Q|=%d: index %d matches, scan %d", len(c.q), len(got), len(want))
		}
		t.Logf("|Q|=%d: candidates %d, dismissed at admission %d, verified %d, cells %d+%d (leaf rows: %d), answers %d",
			len(c.q), st.Candidates, spy.dead, spy.starts, st.FilterCells, st.PostCells, c.leafRows, st.Answers)
		if st.Candidates != uint64(spy.dead+spy.starts) {
			t.Errorf("|Q|=%d: %d candidates for %d dismissed and %d verified starts, want one emission and one decision per start", len(c.q), st.Candidates, spy.dead, spy.starts)
		}
		if cells := st.FilterCells + st.PostCells; 100*cells > 101*c.leafRows {
			t.Errorf("|Q|=%d: %d filter + verification cells, want at most 1%% over the %d of filtered leaves", len(c.q), cells, c.leafRows)
		}
		if spy.deadVerified != 0 || spy.misled != 0 {
			t.Errorf("|Q|=%d: %d starts dead on their first element were verified, %d admission verdicts disagree with the base distance", len(c.q), spy.deadVerified, spy.misled)
		}
		if spy.starts == 0 || spy.dead == 0 {
			t.Errorf("|Q|=%d: %d dismissed and %d verified starts: the fixture does not exercise admission", len(c.q), spy.dead, spy.starts)
		}
	}
}

// TestAdmissionKeepsTies: a start whose first element is exactly eps from
// the query's first, and whose later elements match the query's exactly, is
// an answer at distance eps, so the admission test must be strict: with
// Dead's > made >= the start never reaches verification and its answers are
// lost on every index that verifies, while the scan keeps them.
func TestAdmissionKeepsTies(t *testing.T) {
	data := sequence.NewDataset()
	data.MustAdd(sequence.Sequence{ID: "tie", Values: []float64{7, 0, 3, 2, 2, 2, 9, 5, 1, 8}})
	data.MustAdd(sequence.Sequence{ID: "other", Values: []float64{4, 6, 0, 9, 1, 3, 2, 2, 7, 5}})
	q := []float64{2, 2, 2}
	const eps = 1.0
	tie := sequence.Ref{Seq: 0, Start: 2, End: 5}
	want, _, err := SeqScan(data, q, eps, -1)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.ContainsFunc(want, func(m Match) bool { return m.Ref == tie && m.Distance == eps }) {
		t.Fatalf("the scan has no answer %v at distance %v: the fixture has no tie", tie, eps)
	}
	dir := t.TempDir()
	for vi, v := range variants() {
		ix, err := Build(data, filepath.Join(dir, fmt.Sprintf("tie-%d.twt", vi)), v.opts)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := search(ix, q, eps)
		ix.Close()
		if err != nil {
			t.Fatal(err)
		}
		if !matchesBitIdentical(got, want) {
			t.Errorf("%s: index %d answers, scan %d (a start at exactly eps must be verified)", v.name, len(got), len(want))
		}
	}
}
