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
	"twsearch/internal/sequence"
)

// Length-filtered indexes must return exactly the scan answers of at least
// the floor length — the conclusion-section space optimization must not
// change the (restricted) answer set.
func TestMinAnswerLenNoFalseDismissals(t *testing.T) {
	rng := rand.New(rand.NewSource(401))
	dir := t.TempDir()
	for trial := 0; trial < 10; trial++ {
		data := randomWalkDataset(rng, 2+rng.Intn(4), 25)
		q := randomQuery(rng, 6)
		eps := float64(rng.Intn(10)) + 0.5
		minLen := 2 + rng.Intn(5)
		for vi, sparse := range []bool{false, true} {
			ix, err := Build(data, filepath.Join(dir, fmt.Sprintf("ml-%d-%d.twt", trial, vi)), Options{
				Kind: categorize.KindMaxEntropy, Categories: 6,
				Sparse: sparse, MinAnswerLen: minLen,
			})
			if err != nil {
				t.Fatal(err)
			}
			if ix.MinAnswerLen() != minLen {
				t.Fatalf("MinAnswerLen = %d, want %d", ix.MinAnswerLen(), minLen)
			}
			got, _, err := search(ix, q, eps)
			if err != nil {
				t.Fatal(err)
			}
			ix.RemoveFile()

			all, _, err := SeqScan(data, q, eps, -1)
			if err != nil {
				t.Fatal(err)
			}
			var want []Match
			for _, m := range all {
				if m.Ref.Len() >= minLen {
					want = append(want, m)
				}
			}
			if !matchesEqual(got, want) {
				t.Fatalf("trial %d sparse=%v minLen=%d: got %d, want %d",
					trial, sparse, minLen, len(got), len(want))
			}
		}
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
// of them.
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
// honors early stop.
func TestSearchVisit(t *testing.T) {
	rng := rand.New(rand.NewSource(461))
	data := randomWalkDataset(rng, 4, 30)
	ix, err := Build(data, filepath.Join(t.TempDir(), "sv.twt"), Options{
		Kind: categorize.KindMaxEntropy, Categories: 6, Sparse: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	q := randomQuery(rng, 6)
	want, _, err := search(ix, q, 12.5)
	if err != nil {
		t.Fatal(err)
	}

	var streamed []Match
	stats, err := searchVisit(ix, q, 12.5, func(m Match) bool {
		streamed = append(streamed, m)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if !matchesEqual(streamed, want) {
		t.Fatalf("streamed %d answers, Search found %d", len(streamed), len(want))
	}
	if stats.Answers != uint64(len(want)) {
		t.Fatalf("stats.Answers = %d", stats.Answers)
	}

	// Early stop delivers no more answers after false (the one in-flight
	// emit is the last).
	if len(want) > 3 {
		count := 0
		if _, err := searchVisit(ix, q, 12.5, func(Match) bool {
			count++
			return count < 3
		}); err != nil {
			t.Fatal(err)
		}
		if count != 3 {
			t.Fatalf("early stop delivered %d answers, want 3", count)
		}
	}
	if _, err := searchVisit(ix, q, 12.5, nil); err == nil {
		t.Error("nil visitor accepted")
	}

	// An exact (identity) index streams its filter-pass answers in the same
	// order.
	exact, err := Build(data, filepath.Join(t.TempDir(), "sve.twt"), Options{Kind: categorize.KindIdentity})
	if err != nil {
		t.Fatal(err)
	}
	defer exact.Close()
	wantExact, _, err := search(exact, q, 12.5)
	if err != nil {
		t.Fatal(err)
	}
	var got []Match
	if _, err := searchVisit(exact, q, 12.5, func(m Match) bool {
		got = append(got, m)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if !matchesEqual(got, wantExact) {
		t.Fatalf("exact streamed %d, Search %d", len(got), len(wantExact))
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
