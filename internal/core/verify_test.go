package core

import (
	"context"
	"fmt"
	"math"
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

// verifySpy wraps the kernel of a one-dimensional index and watches
// admission and the verification pass: how many offered starts Admit
// dismissed, whether each verdict is the one admission's definition gives
// (misled counts those that are not), which starts it admitted and how
// often, how often the backward pass saw each start and how many it
// dismissed, which starts Verify was pointed at, and whether one of those
// was dead on its first element after all.
type verifySpy struct {
	*kernel
	// bound is where the test finds the spy of the latest search.
	bound                   **verifySpy
	eps                     float64
	window                  int
	envelopes               bool
	dead, dismissed, starts int
	deadVerified, misled    int
	// admitted and backward count, per (sequence, start), the starts Admit
	// returned and the backward pass's sightings.
	admitted, backward map[[2]int]int
}

// Bind starts the spy's counts afresh for a search at threshold eps.
func (k *verifySpy) Bind(q []float64, filterWindow, window int, eps float64, envelopes bool) {
	*k = verifySpy{kernel: k.kernel, bound: k.bound, eps: eps, window: window, envelopes: envelopes,
		admitted: map[[2]int]int{}, backward: map[[2]int]int{}}
	*k.bound = k
	k.kernel.Bind(q, filterWindow, window, eps, envelopes)
}

// admissionDead is admission's verdict from its definition (THEORY.md §1a,
// §13): the start's first value alone is further than eps from the query's
// first; or, with envelopes on under a window w that leaves every answer
// n - w > 1 values, fewer than n - w values begin at the start, or the
// windowed bound — that base distance plus, for each row i from 1 to
// n - w - 1, the gap between the value there and the hull of q[i-w ..
// i+w] — exceeds eps raised by the margin of 3n terms.
func admissionDead(s, q []float64, start, w int, eps float64, envelopes bool) bool {
	sum := dtw.Base(s[start], q[0])
	if sum > eps {
		return true
	}
	n := len(q)
	if !envelopes || w < 0 || n-w <= 1 || math.IsInf(eps, 1) {
		return false
	}
	if start+n-w > len(s) {
		return true
	}
	for i := 1; i < n-w; i++ {
		hull := q[max(0, i-w):min(n, i+w+1)]
		sum += dtw.BaseInterval(s[start+i], slices.Min(hull), slices.Max(hull))
	}
	return sum > eps*(1+float64(3*n)*0x1p-50)
}

// Admit checks and counts the verdict on every start offered: a start it
// does not return is one it dismissed.
func (k *verifySpy) Admit(seq, from, to int, live []int32) []int32 {
	n := len(live)
	live = k.kernel.Admit(seq, from, to, live)
	if !slices.IsSorted(live[n:]) {
		k.misled++
	}
	for start := from; start < to; start++ {
		_, admitted := slices.BinarySearch(live[n:], int32(start))
		dead := !admitted
		if dead != admissionDead(k.data.Values(seq), k.q, start, k.window, k.eps, k.envelopes) {
			k.misled++
		}
		if dead {
			k.dead++
		} else {
			k.admitted[[2]int{seq, start}]++
		}
	}
	return live
}

func (k *verifySpy) Backward(seq int, starts, ends []int32, live []bool, more func() bool) {
	k.kernel.Backward(seq, starts, ends, live, more)
	for i, l := range live {
		k.backward[[2]int{seq, int(starts[i])}]++
		if !l {
			k.dismissed++
		}
	}
}

func (k *verifySpy) Verify(seq, start, end int, hit func(end int, dist float64)) {
	k.starts++
	if dtw.Base(k.data.Values(seq)[start], k.q[0]) > k.eps {
		k.deadVerified++
	}
	k.kernel.Verify(seq, start, end, hit)
}

// TestVerificationCostsItsAnswers pins what the verification pass costs, on
// a sparse tree with long runs where one path crosses several qualifying
// edges: (1) every start is emitted once — the subtree under a qualifying
// path is collected once, where the descent stops, and a reached leaf hands
// over all its starts itself — so Candidates is one per offered start, and
// each one is dismissed by admission, dismissed by the backward pass or verified
// by one kernel call — on the identity trees, dense and sparse, as on the
// lossy ones: their exact filter rows prune and gate, but verification
// decides every answer — and the backward pass sees every admitted start
// once; (2) a start whose first element alone is
// further than eps from q[0] never reaches Verify, and admission's every verdict is the one
// admission's definition gives (admissionDead) — on the windowed tree, the
// windowed admission bound's; (3) the answers are still exactly the
// sequential scan's; (4)
// the exact cells that replace a reached leaf's interval rows are no more
// than those rows: filter and verification cells together stay within 1%
// of what this search cost when leaves were filtered. On these long runs
// every shifted start was verified on its own, so the two came out even
// (32273 → 32288 and 2911 → 2882 cells); since the backward pass dismisses
// the starts without an answer first, |Q|=8 costs 13453 (1387 of 1404
// admitted starts dismissed), and |Q|=1, where the pass has nothing to add
// to admission, still 2882. The same tree under window 2 has no such pin: there
// the windowed admission bound dismisses most starts before the pass.
//
// The dense identity tree is the paper's plain ST under window 2: unwindowed,
// its exact first filter row already prunes every start admission's
// first-element test would dismiss, so that arm would exercise no
// admission. The sparse identity tree, whose shifted starts pass by their
// discounted bound, needs no window for that.
func TestVerificationCostsItsAnswers(t *testing.T) {
	data := plateauDataset(rand.New(rand.NewSource(2407)), 24, 150)
	dir := t.TempDir()
	var spy *verifySpy
	spied := func(name string, opts Options) *Index {
		ix, err := Build(data, filepath.Join(dir, name), opts)
		if err != nil {
			t.Fatal(err)
		}
		inner := ix.newKernel
		ix.newKernel = func() Kernel { return &verifySpy{kernel: inner().(*kernel), bound: &spy} }
		return ix
	}
	plain := spied("plateau.twt", Options{Kind: categorize.KindMaxEntropy, Categories: 5, Sparse: true})
	defer plain.Close()
	windowed := spied("plateau-w2.twt", Options{Kind: categorize.KindMaxEntropy, Categories: 5, Sparse: true, Window: 2})
	defer windowed.Close()
	exact := spied("plateau-id.twt", Options{Kind: categorize.KindIdentity, Sparse: true})
	defer exact.Close()
	dense := spied("plateau-id-w2.twt", Options{Kind: categorize.KindIdentity, Window: 2})
	defer dense.Close()

	for _, c := range []struct {
		ix  *Index
		q   []float64
		eps float64
		// leafRows is FilterCells + PostCells of this search at the commit
		// before leaves were verified instead of filtered; 0 for none.
		leafRows uint64
	}{
		{plain, []float64{8, 8, 9, 12, 12, 11, 16, 16}, 6, 32273},
		{plain, []float64{8}, 2, 2911},
		{windowed, []float64{8, 8, 9, 12, 12, 11, 16, 16}, 6, 0},
		{exact, []float64{8, 8, 9, 12, 12, 11, 16, 16}, 6, 0},
		{dense, []float64{8, 8, 9, 12, 12, 11, 16, 16}, 6, 0},
	} {
		ix := c.ix
		want, _, err := SeqScan(data, c.q, c.eps, ix.Window)
		if err != nil {
			t.Fatal(err)
		}
		if len(want) == 0 {
			t.Fatalf("|Q|=%d: no answers, the fixture verifies nothing", len(c.q))
		}
		got, st, err := ix.Search(context.Background(), c.q, c.eps)
		if err != nil {
			t.Fatalf("|Q|=%d: %v", len(c.q), err)
		}
		if !matchesBitIdentical(got, want) {
			t.Fatalf("|Q|=%d: index %d matches, scan %d", len(c.q), len(got), len(want))
		}
		t.Logf("w=%d |Q|=%d: candidates %d, dismissed at admission %d, by the backward pass %d, verified %d, cells %d+%d (leaf rows: %d), LB cells %d, answers %d",
			ix.Window, len(c.q), st.Candidates, spy.dead, spy.dismissed, spy.starts, st.FilterCells, st.PostCells, c.leafRows, st.LBCells, st.Answers)
		for start, n := range spy.admitted {
			if spy.backward[start] != 1 {
				t.Errorf("w=%d |Q|=%d: admitted start %v offered %d times reached the backward pass %d times, want once", ix.Window, len(c.q), start, n, spy.backward[start])
			}
		}
		if len(spy.backward) != len(spy.admitted) {
			t.Errorf("w=%d |Q|=%d: the backward pass saw %d starts, %d were admitted", ix.Window, len(c.q), len(spy.backward), len(spy.admitted))
		}
		if st.Candidates != uint64(spy.dead+spy.dismissed+spy.starts) {
			t.Errorf("|Q|=%d: %d candidates for %d dismissed at admission, %d by the backward pass and %d verified starts, want one emission and one decision per start", len(c.q), st.Candidates, spy.dead, spy.dismissed, spy.starts)
		}
		if cells := st.FilterCells + st.PostCells; c.leafRows > 0 && 100*cells > 101*c.leafRows {
			t.Errorf("|Q|=%d: %d filter + verification cells, want at most 1%% over the %d of filtered leaves", len(c.q), cells, c.leafRows)
		}
		if spy.deadVerified != 0 || spy.misled != 0 {
			t.Errorf("w=%d |Q|=%d: %d starts dead on their first element were verified, %d admission verdicts disagree with its definition", ix.Window, len(c.q), spy.deadVerified, spy.misled)
		}
		if spy.starts == 0 || spy.dead == 0 {
			t.Errorf("|Q|=%d: %d dismissed and %d verified starts: the fixture does not exercise admission", len(c.q), spy.dead, spy.starts)
		}
	}
}

// TestBackwardKeepsRoundingTies: the scan adds the base distances 0.3, 0.2
// and 0.1 of the answer [2, 5) to 0.6, and the backward pass adds the same
// three in the opposite order to 0.6000000000000001, so at eps = 0.6 the
// pass must test against eps raised by its rounding margin: at eps itself
// every index that verifies would dismiss a start the scan answers at.
func TestBackwardKeepsRoundingTies(t *testing.T) {
	data := sequence.NewDataset()
	data.MustAdd(sequence.Sequence{ID: "tie", Values: []float64{7, 5, 0.3, 0.2, 0.1, 4, 9, 6}})
	data.MustAdd(sequence.Sequence{ID: "other", Values: []float64{4, 6, 2, 9, 1, 3, 8, 5}})
	q := []float64{0, 0, 0}
	const eps = 0.6
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
		ix, err := Build(data, filepath.Join(dir, fmt.Sprintf("round-%d.twt", vi)), v.opts)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := search(ix, q, eps)
		ix.Close()
		if err != nil {
			t.Fatal(err)
		}
		if !matchesBitIdentical(got, want) {
			t.Errorf("%s: index %d answers, scan %d (the backward pass must allow for its rounding)", v.name, len(got), len(want))
		}
	}
}

// TestAdmissionKeepsTies: a start whose first element is exactly eps from
// the query's first, and whose later elements match the query's exactly, is
// an answer at distance eps, so the admission test must be strict: with
// Dead's > made >= the start never reaches verification and its answers are
// lost on every index that verifies, while the scan keeps them.
//
// The windowed arms hold the windowed admission bound (THEORY.md §13) to
// the same: under window 1 the answer [2, 6) of q = {2, 2, 2, 2} at
// distance 0 has a bound of exactly 0, which a >= in the bound's test
// dismisses at eps = 0; and the answer [12, 16) at distance 1 has a bound
// of exactly 1, summed from its gap terms 0.5 and 0.5, not its first
// value.
//
// At dimension 2 the same ties hold by the city-block base distance, the
// bound's gap terms summed over the dimensions: under window 1 the answer
// [8, 12) at distance 1 has a bound of exactly 1, from the gaps 0.5 of
// (2.5, 2) and (2, 2.5).
func TestAdmissionKeepsTies(t *testing.T) {
	data := sequence.NewDataset()
	data.MustAdd(sequence.Sequence{ID: "tie", Values: []float64{7, 0, 3, 2, 2, 2, 9, 5, 1, 8}})
	data.MustAdd(sequence.Sequence{ID: "other", Values: []float64{4, 6, 0, 9, 1, 3, 2, 2, 7, 5}})
	data.MustAdd(sequence.Sequence{ID: "windowed", Values: []float64{7, 0, 2, 2, 2, 2, 9, 5, 1, 8, 0, 6, 2, 2.5, 2.5, 2, 8, 0}})
	var scalar []Options
	for _, v := range variants() {
		scalar = append(scalar, v.opts)
	}
	vec := sequence.NewDatasetDim(2)
	vec.MustAdd(sequence.Sequence{ID: "tie", Values: []float64{7, 1, 0, 4, 3, 2, 2, 2, 2, 2, 2, 2, 9, 6, 5, 0, 1, 3}})
	vec.MustAdd(sequence.Sequence{ID: "other", Values: []float64{4, 4, 6, 1, 0, 0, 9, 8, 1, 2, 3, 5, 2, 2, 7, 7}})
	vec.MustAdd(sequence.Sequence{ID: "windowed", Values: []float64{7, 1, 0, 4, 2, 2, 2, 2, 2, 2, 2, 2, 9, 6, 5, 0, 2, 2, 2.5, 2, 2, 2.5, 2, 2, 8, 0}})
	grids := []Options{
		{Kind: categorize.KindMaxEntropy, Categories: 2},
		{Kind: categorize.KindMaxEntropy, Categories: 2, Sparse: true},
		{Kind: categorize.KindIdentity},
		{Kind: categorize.KindIdentity, Sparse: true},
	}
	dir := t.TempDir()
	for _, c := range []struct {
		data   *sequence.Dataset
		opts   []Options
		q      []float64
		window int
		eps    float64
		tie    sequence.Ref
	}{
		{data, scalar, []float64{2, 2, 2}, -1, 1, sequence.Ref{Seq: 0, Start: 2, End: 5}},
		{data, scalar, []float64{2, 2, 2, 2}, 1, 0, sequence.Ref{Seq: 2, Start: 2, End: 6}},
		{data, scalar, []float64{2, 2, 2, 2}, 1, 1, sequence.Ref{Seq: 2, Start: 12, End: 16}},
		{vec, grids, []float64{2, 2, 2, 2, 2, 2}, -1, 1, sequence.Ref{Seq: 0, Start: 2, End: 5}},
		{vec, grids, []float64{2, 2, 2, 2, 2, 2, 2, 2}, 1, 0, sequence.Ref{Seq: 2, Start: 2, End: 6}},
		{vec, grids, []float64{2, 2, 2, 2, 2, 2, 2, 2}, 1, 1, sequence.Ref{Seq: 2, Start: 8, End: 12}},
	} {
		dim := c.data.Dim()
		want, _, err := SeqScan(c.data, c.q, c.eps, c.window)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.ContainsFunc(want, func(m Match) bool { return m.Ref == c.tie && m.Distance == c.eps }) {
			t.Fatalf("d=%d w=%d: the scan has no answer %v at distance %v: the fixture has no tie", dim, c.window, c.tie, c.eps)
		}
		for _, opts := range c.opts {
			opts.Window = c.window
			ix, err := Build(c.data, filepath.Join(dir, "tie.twt"), opts)
			if err != nil {
				t.Fatal(err)
			}
			got, _, err := search(ix, c.q, c.eps)
			ix.Close()
			if err != nil {
				t.Fatal(err)
			}
			if !matchesBitIdentical(got, want) {
				t.Errorf("d=%d %+v eps=%v: index %d answers, scan %d (a start at exactly eps must be verified)", dim, opts, c.eps, len(got), len(want))
			}
		}
	}
}
