package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"twsearch/internal/categorize"
	"twsearch/internal/dtw"
	"twsearch/internal/sequence"
)

// search, searchVisit and searchKNN are the uncancellable form of the
// index's three entry points, which most tests here want.
func search(ix *Index, q []float64, eps float64) ([]Match, SearchStats, error) {
	return ix.Search(context.Background(), q, eps)
}

func searchVisit(ix *Index, q []float64, eps float64, fn func(Match) bool) (SearchStats, error) {
	return ix.SearchVisit(context.Background(), q, eps, fn)
}

func searchKNN(ix *Index, q []float64, k int) ([]Match, SearchStats, error) {
	return ix.SearchKNN(context.Background(), q, k)
}

// TestSearchSurface pins the index's search entry points: one ctx-taking
// form per operation. A re-added shim changes the list and fails here.
func TestSearchSurface(t *testing.T) {
	var got []string
	typ := reflect.TypeOf((*Index)(nil))
	for i := 0; i < typ.NumMethod(); i++ {
		if name := typ.Method(i).Name; strings.HasPrefix(name, "Search") || strings.HasPrefix(name, "SeqScan") {
			got = append(got, name)
		}
	}
	want := []string{"Search", "SearchKNN", "SearchVisit"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("*Index search methods = %v, want %v", got, want)
	}
}

// randomWalkDataset builds integer-valued random walks; integer values keep
// distance arithmetic exact so index results can be compared to the
// baseline with ==.
func randomWalkDataset(rng *rand.Rand, nSeq, maxLen int) *sequence.Dataset {
	d := sequence.NewDataset()
	for i := 0; i < nSeq; i++ {
		n := 2 + rng.Intn(maxLen-1)
		vals := make([]float64, n)
		v := float64(rng.Intn(20))
		for j := range vals {
			v += float64(rng.Intn(5) - 2)
			vals[j] = v
		}
		d.MustAdd(sequence.Sequence{ID: fmt.Sprintf("s%d", i), Values: vals})
	}
	return d
}

func randomQuery(rng *rand.Rand, maxLen int) []float64 {
	n := 1 + rng.Intn(maxLen)
	q := make([]float64, n)
	v := float64(rng.Intn(20))
	for i := range q {
		v += float64(rng.Intn(5) - 2)
		q[i] = v
	}
	return q
}

// bruteForce enumerates every subsequence and computes its exact distance —
// the independent ground truth for SeqScan itself.
func bruteForce(data *sequence.Dataset, q []float64, eps float64, window int) []Match {
	var out []Match
	for seq := 0; seq < data.Len(); seq++ {
		vals := data.Values(seq)
		for a := 0; a < len(vals); a++ {
			for b := a + 1; b <= len(vals); b++ {
				var dist float64
				if window < 0 {
					dist = dtw.Distance(vals[a:b], q)
				} else {
					dist = dtw.DistanceWindow(vals[a:b], q, window)
				}
				if dist <= eps {
					out = append(out, Match{Ref: sequence.Ref{Seq: seq, Start: a, End: b}, Distance: dist})
				}
			}
		}
	}
	sortMatches(out)
	return out
}

// matchesBitIdentical demands byte-identical results: same locations, same
// IEEE-754 bits in every distance, same order.
func matchesBitIdentical(a, b []Match) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Ref != b[i].Ref ||
			math.Float64bits(a[i].Distance) != math.Float64bits(b[i].Distance) {
			return false
		}
	}
	return true
}

func matchesEqual(a, b []Match) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Ref != b[i].Ref {
			return false
		}
		if math.Abs(a[i].Distance-b[i].Distance) > 1e-9 {
			return false
		}
	}
	return true
}

func TestSeqScanPaperExample(t *testing.T) {
	data := sequence.NewDataset()
	data.MustAdd(sequence.Sequence{ID: "s4", Values: []float64{4, 5, 6, 7, 6, 6}})
	q := []float64{3, 4, 3}
	matches, stats, err := SeqScan(data, q, 8, -1)
	if err != nil {
		t.Fatal(err)
	}
	// D_tw(S3, S4[1:4]) = 8 (Figure 1): subsequence [0:4) must be reported
	// with distance exactly 8.
	found := false
	for _, m := range matches {
		if m.Ref == (sequence.Ref{Seq: 0, Start: 0, End: 4}) {
			found = true
			if m.Distance != 8 {
				t.Errorf("distance = %v, want 8", m.Distance)
			}
		}
		sub := data.Values(0)[m.Ref.Start:m.Ref.End]
		if want := dtw.Distance(sub, q); m.Distance != want {
			t.Errorf("%v distance = %v, want %v", m.Ref, m.Distance, want)
		}
	}
	if !found {
		t.Error("S4[1:4] missing from answers")
	}
	if stats.Answers != uint64(len(matches)) {
		t.Error("Answers counter wrong")
	}
	if stats.FilterCells == 0 {
		t.Error("no cells counted")
	}
}

func TestSeqScanMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(301))
	for trial := 0; trial < 40; trial++ {
		data := randomWalkDataset(rng, 1+rng.Intn(4), 20)
		q := randomQuery(rng, 8)
		eps := float64(rng.Intn(12)) + 0.5
		window := -1
		if rng.Intn(3) == 0 {
			window = rng.Intn(8)
		}
		got, _, err := SeqScan(data, q, eps, window)
		if err != nil {
			t.Fatal(err)
		}
		want := bruteForce(data, q, eps, window)
		if !matchesEqual(got, want) {
			t.Fatalf("trial %d: SeqScan %d matches, brute force %d (eps=%v, w=%d)",
				trial, len(got), len(want), eps, window)
		}
	}
}

func TestSearchInputErrors(t *testing.T) {
	data := randomWalkDataset(rand.New(rand.NewSource(1)), 2, 10)
	ix, err := Build(data, filepath.Join(t.TempDir(), "ix.twt"), Options{Kind: categorize.KindMaxEntropy, Categories: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	if _, _, err := search(ix, nil, 5); err == nil {
		t.Error("empty query accepted")
	}
	if _, _, err := search(ix, []float64{1}, -1); err == nil {
		t.Error("negative eps accepted")
	}
	if _, _, err := SeqScan(data, nil, 5, -1); err == nil {
		t.Error("SeqScan empty query accepted")
	}
	if _, _, err := SeqScan(data, []float64{1}, -2, -1); err == nil {
		t.Error("SeqScan negative eps accepted")
	}
	// A NaN threshold prunes nothing and accepts nothing, so a search would
	// walk the whole tree for no answer; a NaN or infinite query value makes
	// every distance NaN or +Inf. All are refused before any work is done.
	nan, inf := math.NaN(), math.Inf(1)
	for _, eps := range []float64{nan, -inf} {
		if _, st, err := search(ix, []float64{1}, eps); err == nil || st.NodesVisited != 0 {
			t.Errorf("eps %v: err %v after %d nodes, want a refusal before the traversal", eps, err, st.NodesVisited)
		}
		if _, _, err := SeqScan(data, []float64{1}, eps, -1); err == nil {
			t.Errorf("SeqScan eps %v accepted", eps)
		}
	}
	for _, v := range []float64{nan, inf, -inf} {
		q := []float64{1, v, 2}
		if _, _, err := search(ix, q, 5); err == nil {
			t.Errorf("query value %v accepted", v)
		}
		if _, _, err := SeqScan(data, q, 5, -1); err == nil {
			t.Errorf("SeqScan query value %v accepted", v)
		}
		if _, _, err := searchKNN(ix, q, 3); err == nil {
			t.Errorf("k-NN query value %v accepted", v)
		}
	}
	for _, c := range []struct{ step, bound float64 }{{nan, 1}, {1, nan}, {1, -1}} {
		if _, _, err := RunKNN(context.Background(), 1, c.step, c.bound, func(m Match) float64 { return m.Distance }, func(context.Context, float64) ([]Match, SearchStats, error) {
			t.Errorf("RunKNN ran a round with step %v and bound %v", c.step, c.bound)
			return nil, SearchStats{}, nil
		}); err == nil {
			t.Errorf("RunKNN accepted step %v and bound %v", c.step, c.bound)
		}
	}
	if _, err := Build(sequence.NewDataset(), filepath.Join(t.TempDir(), "e.twt"), Options{}); err == nil {
		t.Error("empty dataset accepted")
	}
}

// An infinite threshold is a threshold: every subsequence is within it —
// under a window, the ones the band keeps off the query's last column at
// distance +Inf — and the index returns exactly the scan's answers, the
// verifier scanning every reached start to the end of its sequence.
func TestInfiniteThresholdMatchesScan(t *testing.T) {
	data := randomWalkDataset(rand.New(rand.NewSource(5)), 3, 12)
	q := []float64{1, 2, 2, 3}
	for _, opts := range []Options{
		{Kind: categorize.KindMaxEntropy, Categories: 3, Sparse: true},
		{Kind: categorize.KindMaxEntropy, Categories: 3, Sparse: true, Window: 1},
		{Kind: categorize.KindEqualLength, Categories: 4, Window: 1},
	} {
		ix, err := Build(data, filepath.Join(t.TempDir(), "inf.twt"), opts)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := search(ix, q, math.Inf(1))
		ix.Close()
		if err != nil {
			t.Fatal(err)
		}
		want, _, err := SeqScan(data, q, math.Inf(1), ix.Window)
		if err != nil {
			t.Fatal(err)
		}
		if !matchesBitIdentical(got, want) {
			t.Errorf("%+v: index %d matches, scan %d", opts, len(got), len(want))
		}
	}
}

// variant describes one of the paper's three index configurations.
type variant struct {
	name string
	opts Options
}

func variants() []variant {
	return []variant{
		{"ST(identity,dense)", Options{Kind: categorize.KindIdentity}},
		{"STc(EL,8)", Options{Kind: categorize.KindEqualLength, Categories: 8}},
		{"STc(ME,8)", Options{Kind: categorize.KindMaxEntropy, Categories: 8}},
		{"STc(ME,3)", Options{Kind: categorize.KindMaxEntropy, Categories: 3}},
		{"SSTc(EL,8)", Options{Kind: categorize.KindEqualLength, Categories: 8, Sparse: true}},
		{"SSTc(ME,3)", Options{Kind: categorize.KindMaxEntropy, Categories: 3, Sparse: true}},
		{"SSTc(KM,5)", Options{Kind: categorize.KindKMeans, Categories: 5, Sparse: true}},
		{"ST(identity,sparse)", Options{Kind: categorize.KindIdentity, Sparse: true}},
	}
}

// TestNoFalseDismissals is the paper's headline guarantee, end to end:
// every index variant returns exactly the SeqScan answer set.
func TestNoFalseDismissals(t *testing.T) {
	rng := rand.New(rand.NewSource(307))
	dir := t.TempDir()
	for trial := 0; trial < 12; trial++ {
		data := randomWalkDataset(rng, 2+rng.Intn(4), 25)
		queries := [][]float64{randomQuery(rng, 8), randomQuery(rng, 4)}
		epses := []float64{0.5, float64(rng.Intn(10)) + 0.5, 25.5}
		for vi, v := range variants() {
			path := filepath.Join(dir, fmt.Sprintf("ix-%d-%d.twt", trial, vi))
			opts := v.opts
			ix, err := Build(data, path, opts)
			if err != nil {
				t.Fatalf("trial %d %s: Build: %v", trial, v.name, err)
			}
			for _, q := range queries {
				for _, eps := range epses {
					want, _, err := SeqScan(data, q, eps, -1)
					if err != nil {
						t.Fatal(err)
					}
					got, stats, err := search(ix, q, eps)
					if err != nil {
						t.Fatalf("trial %d %s: Search: %v", trial, v.name, err)
					}
					if !matchesEqual(got, want) {
						t.Fatalf("trial %d %s eps=%v |q|=%d: index %d matches, seqscan %d",
							trial, v.name, eps, len(q), len(got), len(want))
					}
					if stats.Answers != uint64(len(got)) {
						t.Errorf("%s: Answers counter %d != %d", v.name, stats.Answers, len(got))
					}
					if stats.Candidates == 0 && stats.Answers > 0 {
						t.Errorf("%s: answers without candidates", v.name)
					}
				}
			}
			if err := ix.RemoveFile(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// Window-constrained search must also agree with the window-constrained scan.
func TestNoFalseDismissalsWindowed(t *testing.T) {
	rng := rand.New(rand.NewSource(311))
	dir := t.TempDir()
	for trial := 0; trial < 10; trial++ {
		data := randomWalkDataset(rng, 2+rng.Intn(3), 20)
		q := randomQuery(rng, 6)
		eps := float64(rng.Intn(8)) + 0.5
		window := 1 + rng.Intn(5) // window 0 means "unset" in Options; lockstep is covered in dtw tests
		for vi, v := range variants()[:6] {
			opts := v.opts
			opts.Window = window
			path := filepath.Join(dir, fmt.Sprintf("wix-%d-%d.twt", trial, vi))
			ix, err := Build(data, path, opts)
			if err != nil {
				t.Fatal(err)
			}
			w := opts.Window
			want, _, err := SeqScan(data, q, eps, w)
			if err != nil {
				t.Fatal(err)
			}
			got, _, err := search(ix, q, eps)
			if err != nil {
				t.Fatal(err)
			}
			if !matchesEqual(got, want) {
				t.Fatalf("trial %d %s w=%d eps=%v: index %d matches, seqscan %d",
					trial, v.name, w, eps, len(got), len(want))
			}
			ix.RemoveFile()
		}
	}
}

// runsDataset builds sequences over the alphabet {0, …, alphabet-1} in runs
// of one to five equal values, so sparse trees store runs and a leaf stands
// for shifted starts.
func runsDataset(rng *rand.Rand, nSeq, length, alphabet int) *sequence.Dataset {
	d := sequence.NewDataset()
	for i := 0; i < nSeq; i++ {
		vals := make([]float64, 0, length)
		for len(vals) < length {
			v := float64(rng.Intn(alphabet))
			for r := 1 + rng.Intn(5); r > 0 && len(vals) < length; r-- {
				vals = append(vals, v)
			}
		}
		d.MustAdd(sequence.Sequence{ID: fmt.Sprintf("r%d", i), Values: vals})
	}
	return d
}

// TestNoFalseDismissalsAtTies is the no-false-dismissal contract where it
// is sharpest: eps set to each distinct exact distance of the scan's
// answers, so some answer lies exactly at eps and every lower bound of it is
// at most eps. A pruning or candidate test that keeps only bound < eps, or
// prunes on bound >= eps, dismisses that answer; a lower bound published as
// a distance changes a Match. Every variant, and the first six under a
// window, must return the scan's answers bit for bit at every such eps.
func TestNoFalseDismissalsAtTies(t *testing.T) {
	rng := rand.New(rand.NewSource(337))
	dir := t.TempDir()
	for trial := 0; trial < 4; trial++ {
		data := runsDataset(rng, 3, 30, 4)
		q := []float64{float64(rng.Intn(4)), float64(rng.Intn(4)), float64(rng.Intn(4))}
		q = append(q, q[2], float64(rng.Intn(4)))
		vs := variants()
		for _, v := range variants()[:6] {
			v.name += fmt.Sprintf(",w=%d", 1+trial%3)
			v.opts.Window = 1 + trial%3
			vs = append(vs, v)
		}
		for vi, v := range vs {
			ix, err := Build(data, filepath.Join(dir, fmt.Sprintf("tie-%d-%d.twt", trial, vi)), v.opts)
			if err != nil {
				t.Fatal(err)
			}
			all, _, err := SeqScan(data, q, 12, ix.Window)
			if err != nil {
				t.Fatal(err)
			}
			var ties []float64
			for _, m := range all {
				ties = append(ties, m.Distance)
			}
			slices.Sort(ties)
			for _, eps := range slices.Compact(ties) {
				want, _, err := SeqScan(data, q, eps, ix.Window)
				if err != nil {
					t.Fatal(err)
				}
				got, _, err := search(ix, q, eps)
				if err != nil {
					t.Fatal(err)
				}
				if !matchesBitIdentical(got, want) {
					t.Errorf("trial %d %s q=%v eps=%v: index %d answers, scan %d",
						trial, v.name, q, eps, len(got), len(want))
					break
				}
			}
			if err := ix.RemoveFile(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// The identity index computes exact distances while filtering: stored
// candidates bypass post-processing entirely on dense trees.
func TestIdentityIndexSkipsPostProcessing(t *testing.T) {
	rng := rand.New(rand.NewSource(313))
	data := randomWalkDataset(rng, 3, 20)
	ix, err := Build(data, filepath.Join(t.TempDir(), "id.twt"), Options{Kind: categorize.KindIdentity})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	_, stats, err := search(ix, randomQuery(rng, 5), 6.5)
	if err != nil {
		t.Fatal(err)
	}
	if stats.PostCells != 0 {
		t.Errorf("identity dense index did post-processing: %d cells", stats.PostCells)
	}
	if stats.FalseAlarms != 0 {
		t.Errorf("identity dense index had %d false alarms", stats.FalseAlarms)
	}
}

// Lossy categorization must never report a distance below the true one —
// every returned Distance is the exact D_tw.
func TestReportedDistancesExact(t *testing.T) {
	rng := rand.New(rand.NewSource(317))
	data := randomWalkDataset(rng, 3, 25)
	ix, err := Build(data, filepath.Join(t.TempDir(), "m.twt"),
		Options{Kind: categorize.KindMaxEntropy, Categories: 4, Sparse: true})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	q := randomQuery(rng, 6)
	matches, _, err := search(ix, q, 12.5)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range matches {
		sub := data.Values(m.Ref.Seq)[m.Ref.Start:m.Ref.End]
		if want := dtw.Distance(sub, q); math.Abs(m.Distance-want) > 1e-9 {
			t.Fatalf("%v: reported %v, exact %v", m.Ref, m.Distance, want)
		}
	}
}

// Branch pruning must not change results, only work: a tiny eps visits few
// nodes, a huge eps visits everything (R_p -> 1, Section 4.3).
func TestPruningReducesWork(t *testing.T) {
	rng := rand.New(rand.NewSource(331))
	data := randomWalkDataset(rng, 10, 60)
	ix, err := Build(data, filepath.Join(t.TempDir(), "p.twt"),
		Options{Kind: categorize.KindMaxEntropy, Categories: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	q := randomQuery(rng, 10)
	_, small, err := search(ix, q, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	_, large, err := search(ix, q, 1e9)
	if err != nil {
		t.Fatal(err)
	}
	if small.NodesVisited >= large.NodesVisited {
		t.Errorf("small eps visited %d nodes, large eps %d", small.NodesVisited, large.NodesVisited)
	}
	if small.FilterCells >= large.FilterCells {
		t.Errorf("small eps computed %d cells, large eps %d", small.FilterCells, large.FilterCells)
	}
}

// With eps large enough to accept everything, the answer count must equal
// the total number of subsequences (the paper's "all subsequences are
// answers" extreme).
func TestHugeEpsReturnsAllSubsequences(t *testing.T) {
	rng := rand.New(rand.NewSource(337))
	data := randomWalkDataset(rng, 3, 12)
	total := 0
	for i := 0; i < data.Len(); i++ {
		n := len(data.Values(i))
		total += n * (n + 1) / 2
	}
	for _, v := range variants()[:4] {
		ix, err := Build(data, filepath.Join(t.TempDir(), "all.twt"), v.opts)
		if err != nil {
			t.Fatal(err)
		}
		matches, _, err := search(ix, randomQuery(rng, 4), 1e12)
		if err != nil {
			t.Fatal(err)
		}
		ix.RemoveFile()
		if len(matches) != total {
			t.Fatalf("%s: %d matches, want %d", v.name, len(matches), total)
		}
	}
}

func TestOpenExistingIndex(t *testing.T) {
	rng := rand.New(rand.NewSource(347))
	data := randomWalkDataset(rng, 4, 20)
	path := filepath.Join(t.TempDir(), "keep.twt")
	opts := Options{Kind: categorize.KindMaxEntropy, Categories: 5, Sparse: true}
	ix, err := Build(data, path, opts)
	if err != nil {
		t.Fatal(err)
	}
	if bs := ix.BuildStats; bs.Suffixes != int(ix.Tree.NumLeaves()) || bs.Nodes != int(ix.Tree.NumNodes()) {
		t.Errorf("BuildStats = %+v, tree has %d leaves / %d nodes", bs, ix.Tree.NumLeaves(), ix.Tree.NumNodes())
	}
	q := randomQuery(rng, 5)
	want, _, err := search(ix, q, 7.5)
	if err != nil {
		t.Fatal(err)
	}
	scheme := ix.Scheme
	ix.Close()

	re, err := Open(data, scheme, path, 16, -1)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	got, _, err := search(re, q, 7.5)
	if err != nil {
		t.Fatal(err)
	}
	if !matchesEqual(got, want) {
		t.Fatal("reopened index returns different answers")
	}
}

func TestStatsPagesCounted(t *testing.T) {
	rng := rand.New(rand.NewSource(349))
	data := randomWalkDataset(rng, 8, 50)
	path := filepath.Join(t.TempDir(), "pg.twt")
	ix, err := Build(data, path, Options{Kind: categorize.KindMaxEntropy, Categories: 6})
	if err != nil {
		t.Fatal(err)
	}
	scheme := ix.Scheme
	ix.Close()
	// Reopen through a tiny pool to force misses.
	re, err := Open(data, scheme, path, 1, -1)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	_, stats, err := search(re, randomQuery(rng, 8), 20.5)
	if err != nil {
		t.Fatal(err)
	}
	if stats.PoolMisses == 0 || stats.PagesRead == 0 {
		t.Errorf("no I/O recorded: %+v", stats)
	}
	if stats.Elapsed <= 0 {
		t.Error("Elapsed not recorded")
	}
}

func TestStatsAdd(t *testing.T) {
	a := SearchStats{NodesVisited: 1, FilterCells: 2, PostCells: 3, Candidates: 4,
		FalseAlarms: 5, Answers: 6, PagesRead: 7, PoolHits: 8, PoolMisses: 9, Elapsed: 10}
	b := a
	a.Add(b)
	if a.NodesVisited != 2 || a.Cells() != 10 || a.Elapsed != 20 || a.PoolMisses != 18 {
		t.Fatalf("Add wrong: %+v", a)
	}
}
