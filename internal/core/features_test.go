package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"sort"
	"testing"

	"twsearch/internal/categorize"
	"twsearch/internal/dtw"
	"twsearch/internal/sequence"
)

// Length-filtered indexes must return exactly the scan answers of at least
// the floor length — the conclusion-section space optimization must not
// change the (restricted) answer set — over values and over points of
// dimension 2.
func TestMinAnswerLenNoFalseDismissals(t *testing.T) {
	dir := t.TempDir()
	check := func(label string, data *sequence.Dataset, opts Options, q []float64, eps float64) {
		t.Helper()
		ix, err := Build(data, filepath.Join(dir, "ml.twt"), opts)
		if err != nil {
			t.Fatal(err)
		}
		if ix.MinAnswerLen() != opts.MinAnswerLen {
			t.Fatalf("MinAnswerLen = %d, want %d", ix.MinAnswerLen(), opts.MinAnswerLen)
		}
		got, _, err := search(ix, q, eps)
		if err != nil {
			t.Fatal(err)
		}
		ix.RemoveFile()
		want, _, err := SeqScan(data, q, eps, -1)
		if err != nil {
			t.Fatal(err)
		}
		if want = atLeast(want, opts.MinAnswerLen); !matchesEqual(got, want) {
			t.Fatalf("%s sparse=%v minLen=%d: got %d, want %d", label, opts.Sparse, opts.MinAnswerLen, len(got), len(want))
		}
	}
	rng := rand.New(rand.NewSource(401))
	for trial := 0; trial < 10; trial++ {
		data := randomWalkDataset(rng, 2+rng.Intn(4), 25)
		q := randomQuery(rng, 6)
		eps := float64(rng.Intn(10)) + 0.5
		minLen := 2 + rng.Intn(5)
		for _, sparse := range []bool{false, true} {
			check(fmt.Sprintf("trial %d", trial), data, Options{
				Kind: categorize.KindMaxEntropy, Categories: 6,
				Sparse: sparse, MinAnswerLen: minLen,
			}, q, eps)
		}
	}
	rng = rand.New(rand.NewSource(511))
	for trial := 0; trial < 6; trial++ {
		data := randomPointDataset(rng, 3, 20, 2)
		q := randomPointQuery(rng, 5, 2)
		eps := float64(rng.Intn(8)) + 0.5
		check(fmt.Sprintf("trial %d d=2", trial), data, Options{Categories: 3, Sparse: trial%2 == 0, MinAnswerLen: 2 + rng.Intn(4)}, q, eps)
	}
}

// The length filter must actually shrink the index.
func TestMinAnswerLenShrinksIndex(t *testing.T) {
	rng := rand.New(rand.NewSource(409))
	data := randomWalkDataset(rng, 8, 60)
	full, err := Build(data, filepath.Join(t.TempDir(), "f.twt"), Options{
		Kind: categorize.KindMaxEntropy, Categories: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer full.Close()
	filtered, err := Build(data, filepath.Join(t.TempDir(), "g.twt"), Options{
		Kind: categorize.KindMaxEntropy, Categories: 6, MinAnswerLen: 15,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer filtered.Close()
	if filtered.Tree.NumLeaves() >= full.Tree.NumLeaves() {
		t.Fatalf("filtered leaves %d >= full %d", filtered.Tree.NumLeaves(), full.Tree.NumLeaves())
	}
	// A sequence of length L keeps exactly max(0, L-minLen+1) suffixes.
	want := uint64(0)
	for i := 0; i < data.Len(); i++ {
		if kept := len(data.Values(i)) - 15 + 1; kept > 0 {
			want += uint64(kept)
		}
	}
	if filtered.Tree.NumLeaves() != want {
		t.Fatalf("filtered leaves = %d, want %d", filtered.Tree.NumLeaves(), want)
	}
}

// kNN must agree with brute force: the k smallest exact distances.
func TestSearchKNN(t *testing.T) {
	rng := rand.New(rand.NewSource(419))
	for trial := 0; trial < 8; trial++ {
		data := randomWalkDataset(rng, 3, 25)
		q := randomQuery(rng, 6)
		k := 1 + rng.Intn(12)
		ix, err := Build(data, filepath.Join(t.TempDir(), "knn.twt"), Options{
			Kind: categorize.KindMaxEntropy, Categories: 5, Sparse: trial%2 == 0,
		})
		if err != nil {
			t.Fatal(err)
		}
		got, stats, err := searchKNN(ix, q, k)
		ix.RemoveFile()
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != k {
			t.Fatalf("trial %d: got %d matches, want k=%d", trial, len(got), k)
		}
		if stats.Answers != uint64(k) {
			t.Fatalf("stats.Answers = %d", stats.Answers)
		}

		// Brute force k smallest distances.
		all, _, err := SeqScan(data, q, 1e18, -1)
		if err != nil {
			t.Fatal(err)
		}
		sort.SliceStable(all, func(i, j int) bool { return all[i].Distance < all[j].Distance })
		kth := all[k-1].Distance
		// Every returned distance must be <= the true k-th distance, and
		// there must be no missed answer strictly below the largest
		// returned distance.
		maxGot := 0.0
		for _, m := range got {
			if m.Distance > kth+1e-9 {
				t.Fatalf("trial %d: returned distance %v beyond true kth %v", trial, m.Distance, kth)
			}
			if m.Distance > maxGot {
				maxGot = m.Distance
			}
		}
		gotSet := map[Match]bool{}
		for _, m := range got {
			gotSet[m] = true
		}
		for _, m := range all {
			if m.Distance < maxGot-1e-9 && !gotSet[m] {
				t.Fatalf("trial %d: missed closer neighbor %+v", trial, m)
			}
		}
	}

	// Dimension 2: the stats are every expansion round's, summed — the
	// envelope gate's counters included: replay the rounds as plain range
	// searches.
	rng = rand.New(rand.NewSource(513))
	data := randomPointDataset(rng, 3, 20, 2)
	ix, err := Build(data, filepath.Join(t.TempDir(), "knn2.twt"), Options{Categories: 3, Sparse: true})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	q := randomPointQuery(rng, 5, 2)
	const k = 7
	got, gotStats, err := searchKNN(ix, q, k)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != k {
		t.Fatalf("d=2: kNN returned %d", len(got))
	}
	step := 0.0
	for i := 2; i < len(q); i += 2 {
		step += dtw.BasePoint(q[i:i+2], q[i-2:i])
	}
	var want SearchStats
	for eps := step/float64(len(q)/2) + 1e-9; ; eps *= 4 {
		ms, st, err := search(ix, q, eps)
		if err != nil {
			t.Fatal(err)
		}
		want.Add(st)
		if len(ms) >= k {
			break
		}
	}
	want.Answers = k
	if exactStats(gotStats) != exactStats(want) || want.LBCells == 0 || want.EnvelopePruned == 0 {
		t.Fatalf("d=2: kNN stats %v, want the rounds' sum %v", exactStats(gotStats), exactStats(want))
	}
	all, _, err := SeqScan(data, q, 1e18, -1)
	if err != nil {
		t.Fatal(err)
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].Distance < all[j].Distance })
	for _, m := range got {
		if m.Distance > all[k-1].Distance+1e-9 {
			t.Fatalf("d=2: kNN distance %v beyond true kth %v", m.Distance, all[k-1].Distance)
		}
	}
	if _, _, err := searchKNN(ix, q, 0); err == nil {
		t.Error("d=2: k=0 accepted")
	}
	if _, _, err := searchKNN(ix, nil, 2); err == nil {
		t.Error("d=2: empty query accepted")
	}
}

// exactStats is the part of SearchStats a search pins exactly: everything
// but wall clock and the index-wide pool deltas.
func exactStats(s SearchStats) [8]uint64 {
	return [8]uint64{s.NodesVisited, s.FilterCells, s.PostCells, s.Candidates, s.FalseAlarms, s.Answers, s.EnvelopePruned, s.LBCells}
}

func TestSearchKNNErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(421))
	data := randomWalkDataset(rng, 2, 10)
	ix, err := Build(data, filepath.Join(t.TempDir(), "k.twt"), Options{Categories: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	if _, _, err := searchKNN(ix, []float64{1}, 0); err == nil {
		t.Error("k=0 accepted")
	}
	if _, _, err := searchKNN(ix, nil, 3); err == nil {
		t.Error("empty query accepted")
	}
}

// SearchKNN with k exceeding the total number of subsequences returns all
// of them. At dimension 3 they come back as the scan finds them at an
// infinite threshold: the distance bound the expansion stops at, summed
// over dimensions, is no smaller than any vector distance. A flat query
// (step 0) climbs from 1e-9 to that bound.
func TestSearchKNNExhaustsDatabase(t *testing.T) {
	rng := rand.New(rand.NewSource(423))
	data := randomWalkDataset(rng, 1, 6)
	n := len(data.Values(0))
	total := n * (n + 1) / 2
	ix, err := Build(data, filepath.Join(t.TempDir(), "k2.twt"), Options{Categories: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	got, _, err := searchKNN(ix, randomQuery(rng, 4), total+10)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != total {
		t.Fatalf("got %d, want all %d subsequences", len(got), total)
	}

	rng = rand.New(rand.NewSource(521))
	vec := randomPointDataset(rng, 4, 15, 3)
	vix, err := Build(vec, filepath.Join(t.TempDir(), "all.twt"), Options{Categories: 3, Sparse: true})
	if err != nil {
		t.Fatal(err)
	}
	defer vix.Close()
	for _, q := range [][]float64{randomPointQuery(rng, 4, 3), {1, 2, 3, 1, 2, 3}} {
		all, _, err := SeqScan(vec, q, math.Inf(1), -1)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := searchKNN(vix, q, len(all)+1)
		if err != nil {
			t.Fatal(err)
		}
		if !matchesBitIdentical(got, all) {
			t.Fatalf("d=3 q=%v: k-NN with k = %d returned %d, want the %d subsequences there are", q, len(all)+1, len(got), len(all))
		}
	}
}

// knnRounds replays searchKNN's expansion loop, counting its rounds and
// keeping the last round's threshold, and checks the replay against the
// entry point: same answers, same work counters, so the same rounds.
func knnRounds(t *testing.T, ix *Index, q []float64, k int) (ms []Match, rounds int, lastEps float64) {
	t.Helper()
	step := 0.0
	for i := 1; i < len(q); i++ {
		step += math.Abs(q[i] - q[i-1])
	}
	ms, st, err := RunKNN(context.Background(), k, step/float64(len(q)), ix.DistanceBound(q), func(m Match) float64 { return m.Distance },
		func(ctx context.Context, eps float64) ([]Match, SearchStats, error) {
			rounds++
			lastEps = eps
			return ix.Search(ctx, q, eps)
		})
	if err != nil {
		t.Fatal(err)
	}
	got, gotStats, err := searchKNN(ix, q, k)
	if err != nil {
		t.Fatal(err)
	}
	if !matchesBitIdentical(got, ms) || gotStats.Cells() != st.Cells() || gotStats.NodesVisited != st.NodesVisited {
		t.Fatalf("k=%d: searchKNN (%d answers, %d cells) is not the replayed loop (%d answers, %d cells)", k, len(got), gotStats.Cells(), len(ms), st.Cells())
	}
	return ms, rounds, lastEps
}

// TestSearchKNNStopsAtBound: with k above the number of subsequences there
// are, the expansion stops at the first round whose threshold reaches the
// index's distance bound. That is at most one round after the round that
// found them all, where the loop used to quadruple the threshold to 1e18 —
// some twenty-odd extra full enumerations — and a flat query, whose step is
// 0, used to start at 1e-9 and climb for 46 rounds.
func TestSearchKNNStopsAtBound(t *testing.T) {
	rng := rand.New(rand.NewSource(443))
	data := sequence.NewDataset()
	for i := 0; i < 20; i++ {
		vals := make([]float64, 60)
		v := float64(rng.Intn(20))
		for j := range vals {
			v += float64(rng.Intn(5) - 2)
			vals[j] = v
		}
		data.MustAdd(sequence.Sequence{ID: fmt.Sprintf("w%d", i), Values: vals})
	}
	const reachable = 20 * 60 * 61 / 2
	ix, err := Build(data, filepath.Join(t.TempDir(), "bound.twt"), Options{Kind: categorize.KindMaxEntropy, Categories: 20})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()

	q := randomQuery(rng, 8)
	all, roundsAll, _ := knnRounds(t, ix, q, reachable)
	over, roundsOver, _ := knnRounds(t, ix, q, reachable+1)
	if len(all) != reachable || !matchesBitIdentical(over, all) {
		t.Fatalf("k = %d and %d: %d and %d answers, want all %d", reachable, reachable+1, len(all), len(over), reachable)
	}
	if roundsOver > roundsAll+1 {
		t.Errorf("k = reachable+1 took %d rounds, k = reachable %d: more than one round more", roundsOver, roundsAll)
	}

	flat := []float64{3, 3, 3, 3}
	bound := ix.DistanceBound(flat)
	got, rounds, last := knnRounds(t, ix, flat, reachable+1)
	t.Logf("rounds: %d at k = reachable, %d at k = reachable+1, %d for the flat query", roundsAll, roundsOver, rounds)
	if len(got) != reachable || last < bound || last/4 >= bound {
		t.Errorf("flat query: %d answers after %d rounds ending at eps %v, want all %d and the first round at or past the bound %v",
			len(got), rounds, last, reachable, bound)
	}
}

func TestSelectCategories(t *testing.T) {
	rng := rand.New(rand.NewSource(433))
	data := randomWalkDataset(rng, 8, 40)
	queries := [][]float64{randomQuery(rng, 6), randomQuery(rng, 8)}
	counts := []int{4, 16, 64}

	// Space-dominated weights must pick the smallest index (fewest cats).
	best, measures, err := SelectCategories(data, queries, 8, counts,
		categorize.CostModel{Wt: 0, Ws: 1},
		Options{Kind: categorize.KindMaxEntropy, Sparse: true}, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if len(measures) != len(counts) {
		t.Fatalf("measures = %d", len(measures))
	}
	if best.Count != 4 {
		t.Fatalf("space-weighted best = %d, want 4", best.Count)
	}
	// Sparse index sizes grow with category count.
	for i := 1; i < len(measures); i++ {
		if measures[i].SpaceCost < measures[i-1].SpaceCost {
			t.Fatalf("index size shrank with more categories: %+v", measures)
		}
	}
	if _, _, err := SelectCategories(data, queries, 8, nil,
		categorize.CostModel{Wt: 1}, Options{}, t.TempDir()); err == nil {
		t.Error("empty counts accepted")
	}
	if _, _, err := SelectCategories(data, nil, 8, counts,
		categorize.CostModel{Wt: 1}, Options{}, t.TempDir()); err == nil {
		t.Error("no queries accepted")
	}
}

// SearchVisit streams exactly the Search answer set, in its order, and
// honors early stop: on an ME index, on an exact (identity) index, whose
// filter-pass answers stream in the same order, and on a grid of
// dimension 2.
func TestSearchVisit(t *testing.T) {
	streams := func(label string, ix *Index, q []float64, eps float64) {
		t.Helper()
		want, _, err := search(ix, q, eps)
		if err != nil {
			t.Fatal(err)
		}
		var streamed []Match
		stats, err := searchVisit(ix, q, eps, func(m Match) bool {
			streamed = append(streamed, m)
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		if !matchesBitIdentical(streamed, want) {
			t.Fatalf("%s: streamed %d answers, Search found %d, or in another order", label, len(streamed), len(want))
		}
		if stats.Answers != uint64(len(want)) {
			t.Fatalf("%s: stats.Answers = %d", label, stats.Answers)
		}
		// Early stop delivers no more answers after false (the one in-flight
		// emit is the last).
		if len(want) <= 3 {
			t.Fatalf("%s: %d answers, too few to stop early", label, len(want))
		}
		count := 0
		if _, err := searchVisit(ix, q, eps, func(Match) bool {
			count++
			return count < 3
		}); err != nil {
			t.Fatal(err)
		}
		if count != 3 {
			t.Fatalf("%s: early stop delivered %d answers, want 3", label, count)
		}
		if _, err := searchVisit(ix, q, eps, nil); err == nil {
			t.Errorf("%s: nil visitor accepted", label)
		}
	}
	rng := rand.New(rand.NewSource(461))
	data := randomWalkDataset(rng, 4, 30)
	q := randomQuery(rng, 6)
	rng2 := rand.New(rand.NewSource(541))
	vec := randomPointDataset(rng2, 3, 20, 2)
	vq := randomPointQuery(rng2, 5, 2)
	for _, c := range []struct {
		label string
		data  *sequence.Dataset
		opts  Options
		q     []float64
		eps   float64
	}{
		{"ME", data, Options{Kind: categorize.KindMaxEntropy, Categories: 6, Sparse: true}, q, 12.5},
		{"identity", data, Options{Kind: categorize.KindIdentity}, q, 12.5},
		{"d=2", vec, Options{Categories: 3, Sparse: true}, vq, 9.5},
	} {
		ix, err := Build(c.data, filepath.Join(t.TempDir(), "sv.twt"), c.opts)
		if err != nil {
			t.Fatal(err)
		}
		streams(c.label, ix, c.q, c.eps)
		ix.Close()
	}
}

// TestSeqScanVisitStreams: the index-free scan hands its answers over as it
// finds them, already in (sequence, start, end) order — the slice SeqScan
// returns is that stream, and no sort follows — and a visitor that returns
// false ends the scan there: it gets exactly the first answers, and the
// scan computes fewer cells than a full one.
func TestSeqScanVisitStreams(t *testing.T) {
	data := randomWalkDataset(rand.New(rand.NewSource(4101)), 5, 40)
	q := []float64{3, 4, 4, 6}
	const eps = 6.5
	all, full, err := SeqScan(data, q, eps, -1)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) < 20 {
		t.Fatalf("%d answers: the fixture streams too little", len(all))
	}
	for i := 1; i < len(all); i++ {
		if compareRefs(all[i-1], all[i]) >= 0 {
			t.Fatalf("answer %d %v follows %v: the scan's stream is out of position order", i, all[i].Ref, all[i-1].Ref)
		}
	}
	if full.Answers != uint64(len(all)) {
		t.Errorf("full scan counts %d answers for %d delivered", full.Answers, len(all))
	}
	for _, stop := range []int{1, len(all) / 2} {
		var got []Match
		st, err := SeqScanVisit(context.Background(), data, q, eps, -1, func(m Match) bool {
			got = append(got, m)
			return len(got) < stop
		})
		if err != nil {
			t.Fatal(err)
		}
		if !matchesBitIdentical(got, all[:stop]) {
			t.Fatalf("a visitor stopping after %d got %d answers, not the scan's first %d", stop, len(got), stop)
		}
		if st.Answers != uint64(stop) || st.FilterCells >= full.FilterCells {
			t.Errorf("stopped after %d: %d answers and %d cells counted, full scan %d cells", stop, st.Answers, st.FilterCells, full.FilterCells)
		}
	}
}
