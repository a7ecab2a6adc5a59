package core

import (
	"bytes"
	"cmp"
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

// search and searchVisit are the uncancellable form of the index's two
// entry points, which most tests here want; searchKNN is the k-NN search
// over it.
func search(ix *Index, q []float64, eps float64) ([]Match, SearchStats, error) {
	return ix.Search(context.Background(), q, eps)
}

func searchVisit(ix *Index, q []float64, eps float64, fn func(Match) bool) (SearchStats, error) {
	return ix.SearchVisit(context.Background(), q, eps, fn)
}

func searchKNN(ix *Index, q []float64, k int) ([]Match, SearchStats, error) {
	return knn(context.Background(), ix, q, k)
}

// knn is the k-NN search over one index, as the shard coordinator runs it
// over one shard: RunKNN over the index's range search, bounded by its
// DistanceBound.
func knn(ctx context.Context, ix *Index, q []float64, k int) ([]Match, SearchStats, error) {
	dim := ix.Data.Dim()
	if err := CheckQuery(q, dim); err != nil {
		return nil, SearchStats{}, err
	}
	return RunKNN(ctx, k, QueryStep(q, dim), ix.DistanceBound(q), func(m Match) float64 { return m.Distance }, func(ctx context.Context, eps float64) ([]Match, SearchStats, error) {
		return ix.Search(ctx, q, eps)
	})
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
	want := []string{"Search", "SearchVisit"}
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

// randomPointDataset is randomWalkDataset for points of dimension dim,
// point-major: every coordinate an integer walk in steps of -1, 0 and 1
// from a start in [0, 10), over 2 to maxLen points.
func randomPointDataset(rng *rand.Rand, nSeq, maxLen, dim int) *sequence.Dataset {
	d := sequence.NewDatasetDim(dim)
	for i := 0; i < nSeq; i++ {
		d.MustAdd(sequence.Sequence{ID: fmt.Sprintf("m%d", i), Values: randomPoints(rng, 2+rng.Intn(maxLen-1), dim)})
	}
	return d
}

// randomPointQuery is a query of 1 to maxLen such points.
func randomPointQuery(rng *rand.Rand, maxLen, dim int) []float64 {
	return randomPoints(rng, 1+rng.Intn(maxLen), dim)
}

func randomPoints(rng *rand.Rand, n, dim int) []float64 {
	v := make([]float64, dim)
	for k := range v {
		v[k] = float64(rng.Intn(10))
	}
	out := make([]float64, 0, n*dim)
	for j := 0; j < n; j++ {
		for k := range v {
			v[k] += float64(rng.Intn(3) - 1)
			out = append(out, v[k])
		}
	}
	return out
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

// sortMatches puts matches in (seq, start, end) order.
func sortMatches(ms []Match) { slices.SortFunc(ms, compareRefs) }

func compareRefs(a, b Match) int {
	if c := cmp.Compare(a.Ref.Seq, b.Ref.Seq); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Ref.Start, b.Ref.Start); c != 0 {
		return c
	}
	return cmp.Compare(a.Ref.End, b.Ref.End)
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

// TestSearchInputErrors: a query that is empty, not a whole number of
// points or holds a NaN or infinite coordinate, and a threshold that is
// negative or NaN, are refused by every entry point of a database of
// dimension 1 and of 2 before any work is done.
func TestSearchInputErrors(t *testing.T) {
	// A NaN threshold prunes nothing and accepts nothing, so a search would
	// walk the whole tree for no answer; a NaN or infinite query value makes
	// every distance NaN or +Inf.
	nan, inf := math.NaN(), math.Inf(1)
	for _, fx := range []struct {
		data *sequence.Dataset
		opts Options
		q    []float64 // a valid one-point query
	}{
		{randomWalkDataset(rand.New(rand.NewSource(1)), 2, 10), Options{Kind: categorize.KindMaxEntropy, Categories: 4}, []float64{1}},
		{randomPointDataset(rand.New(rand.NewSource(419)), 2, 10, 2), Options{}, []float64{1, 2}},
	} {
		data, q := fx.data, fx.q
		ix, err := Build(data, filepath.Join(t.TempDir(), "ix.twt"), fx.opts)
		if err != nil {
			t.Fatal(err)
		}
		defer ix.Close()
		dim := len(q)
		if _, _, err := search(ix, nil, 5); err == nil {
			t.Errorf("d=%d: empty query accepted", dim)
		}
		if _, _, err := SeqScan(data, nil, 5, -1); err == nil {
			t.Errorf("d=%d: SeqScan empty query accepted", dim)
		}
		if _, _, err := search(ix, q, -1); err == nil {
			t.Errorf("d=%d: negative eps accepted", dim)
		}
		if _, _, err := SeqScan(data, q, -2, -1); err == nil {
			t.Errorf("d=%d: SeqScan negative eps accepted", dim)
		}
		if dim > 1 {
			if _, _, err := search(ix, q[:1], 1); err == nil {
				t.Errorf("d=%d: query of a partial point accepted", dim)
			}
		}
		for _, eps := range []float64{nan, -inf} {
			if _, st, err := search(ix, q, eps); err == nil || st.NodesVisited != 0 {
				t.Errorf("d=%d eps %v: err %v after %d nodes, want a refusal before the traversal", dim, eps, err, st.NodesVisited)
			}
			if _, _, err := SeqScan(data, q, eps, -1); err == nil {
				t.Errorf("d=%d: SeqScan eps %v accepted", dim, eps)
			}
		}
		for _, v := range []float64{nan, inf, -inf} {
			bad := append(slices.Clone(q), q...)
			bad[len(bad)-1] = v
			if _, _, err := search(ix, bad, 5); err == nil {
				t.Errorf("d=%d: query value %v accepted", dim, v)
			}
			if _, _, err := SeqScan(data, bad, 5, -1); err == nil {
				t.Errorf("d=%d: SeqScan query value %v accepted", dim, v)
			}
			if _, _, err := searchKNN(ix, bad, 3); err == nil {
				t.Errorf("d=%d: k-NN query value %v accepted", dim, v)
			}
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
	// Every option builds an index that searches, even over one short
	// sequence.
	short := sequence.NewDataset()
	short.MustAdd(sequence.Sequence{ID: "a", Values: []float64{1, 2, 3}})
	for _, opts := range []Options{
		{},
		{Sparse: true},
		{Window: 2},
		{MinAnswerLen: 2, Sparse: true},
		{Kind: categorize.KindEqualLength, Categories: 2},
	} {
		ix, err := Build(short, filepath.Join(t.TempDir(), "o.twt"), opts)
		if err != nil {
			t.Fatalf("%+v: %v", opts, err)
		}
		if _, _, err := search(ix, []float64{2}, 1); err != nil {
			t.Errorf("%+v: search: %v", opts, err)
		}
		ix.Close()
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
// every index variant returns exactly the SeqScan answer set — over values,
// and over points of dimension 1 to 3 on ME grids of one to four categories
// per dimension, dense and sparse.
func TestNoFalseDismissals(t *testing.T) {
	dir := t.TempDir()
	check := func(label string, data *sequence.Dataset, ix *Index, q []float64, eps float64) {
		t.Helper()
		want, _, err := SeqScan(data, q, eps, -1)
		if err != nil {
			t.Fatal(err)
		}
		got, stats, err := search(ix, q, eps)
		if err != nil {
			t.Fatalf("%s: Search: %v", label, err)
		}
		if !matchesEqual(got, want) {
			t.Fatalf("%s eps=%v q=%v: index %d matches, seqscan %d", label, eps, q, len(got), len(want))
		}
		if stats.Answers != uint64(len(got)) {
			t.Errorf("%s: Answers counter %d != %d", label, stats.Answers, len(got))
		}
		if stats.Candidates == 0 && stats.Answers > 0 {
			t.Errorf("%s: answers without candidates", label)
		}
	}
	rng := rand.New(rand.NewSource(307))
	for trial := 0; trial < 12; trial++ {
		data := randomWalkDataset(rng, 2+rng.Intn(4), 25)
		queries := [][]float64{randomQuery(rng, 8), randomQuery(rng, 4)}
		epses := []float64{0.5, float64(rng.Intn(10)) + 0.5, 25.5}
		for vi, v := range variants() {
			ix, err := Build(data, filepath.Join(dir, fmt.Sprintf("ix-%d-%d.twt", trial, vi)), v.opts)
			if err != nil {
				t.Fatalf("trial %d %s: Build: %v", trial, v.name, err)
			}
			for _, q := range queries {
				for _, eps := range epses {
					check(fmt.Sprintf("trial %d %s", trial, v.name), data, ix, q, eps)
				}
			}
			if err := ix.RemoveFile(); err != nil {
				t.Fatal(err)
			}
		}
	}
	rng = rand.New(rand.NewSource(409))
	for trial := 0; trial < 10; trial++ {
		dim := 1 + rng.Intn(3)
		data := randomPointDataset(rng, 2+rng.Intn(3), 20, dim)
		q := randomPointQuery(rng, 6, dim)
		eps := float64(rng.Intn(10)) + 0.5
		for _, sparse := range []bool{false, true} {
			opts := Options{Kind: categorize.KindMaxEntropy, Categories: 1 + rng.Intn(4), Sparse: sparse}
			ix, err := Build(data, filepath.Join(dir, fmt.Sprintf("mix-%d-%v.twt", trial, sparse)), opts)
			if err != nil {
				t.Fatalf("trial %d: Build: %v", trial, err)
			}
			check(fmt.Sprintf("trial %d d=%d %+v", trial, dim, opts), data, ix, q, eps)
			ix.Close()
		}
	}
}

// Window-constrained search must also agree with the window-constrained
// scan, over values and over points of dimension 1 and 2.
func TestNoFalseDismissalsWindowed(t *testing.T) {
	dir := t.TempDir()
	check := func(label string, data *sequence.Dataset, opts Options, q []float64, eps float64) {
		t.Helper()
		ix, err := Build(data, filepath.Join(dir, "w.twt"), opts)
		if err != nil {
			t.Fatal(err)
		}
		defer ix.RemoveFile()
		want, _, err := SeqScan(data, q, eps, opts.Window)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := search(ix, q, eps)
		if err != nil {
			t.Fatal(err)
		}
		if !matchesEqual(got, want) {
			t.Fatalf("%s w=%d eps=%v: index %d matches, seqscan %d", label, opts.Window, eps, len(got), len(want))
		}
	}
	rng := rand.New(rand.NewSource(311))
	for trial := 0; trial < 10; trial++ {
		data := randomWalkDataset(rng, 2+rng.Intn(3), 20)
		q := randomQuery(rng, 6)
		eps := float64(rng.Intn(8)) + 0.5
		window := 1 + rng.Intn(5) // window 0 means "unset" in Options; lockstep is covered in dtw tests
		for _, v := range variants()[:6] {
			v.opts.Window = window
			check(fmt.Sprintf("trial %d %s", trial, v.name), data, v.opts, q, eps)
		}
	}
	rng = rand.New(rand.NewSource(509))
	for trial := 0; trial < 8; trial++ {
		dim := 1 + rng.Intn(2)
		data := randomPointDataset(rng, 2+rng.Intn(3), 18, dim)
		q := randomPointQuery(rng, 6, dim)
		eps := float64(rng.Intn(8)) + 0.5
		window := 1 + rng.Intn(5)
		for _, sparse := range []bool{false, true} {
			check(fmt.Sprintf("trial %d d=%d sparse=%v", trial, dim, sparse), data,
				Options{Categories: 1 + rng.Intn(3), Sparse: sparse, Window: window}, q, eps)
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
//
// At dimension 2 the points lie on a 3×3 integer lattice in runs of one to
// six equal points, and every grid shape — ME and identity cells, dense and
// sparse, with and without a window — must do the same. The grid filter is
// never exact, so a shifted start reaches verification only through a leaf
// the descent collects below a pruned node: the tree must be deep enough to
// prune under a qualifying path, hence eight sequences.
func TestNoFalseDismissalsAtTies(t *testing.T) {
	dir := t.TempDir()
	atTies := func(label string, data *sequence.Dataset, opts Options, q []float64, reach float64) {
		t.Helper()
		ix, err := Build(data, filepath.Join(dir, "tie.twt"), opts)
		if err != nil {
			t.Fatal(err)
		}
		defer ix.RemoveFile()
		all, _, err := SeqScan(data, q, reach, ix.Window)
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
				t.Errorf("%s q=%v eps=%v: index %d answers, scan %d", label, q, eps, len(got), len(want))
				return
			}
		}
	}
	rng := rand.New(rand.NewSource(337))
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
		for _, v := range vs {
			atTies(fmt.Sprintf("trial %d %s", trial, v.name), data, v.opts, q, 12)
		}
	}

	rng = rand.New(rand.NewSource(421))
	runs := func(n, maxRun int) []float64 { // n lattice points in runs
		var out []float64
		for len(out) < 2*n {
			p := []float64{float64(rng.Intn(3)), float64(rng.Intn(3))}
			for r := 1 + rng.Intn(maxRun); r > 0 && len(out) < 2*n; r-- {
				out = append(out, p...)
			}
		}
		return out
	}
	for trial := 0; trial < 4; trial++ {
		data := sequence.NewDatasetDim(2)
		for i := 0; i < 8; i++ {
			data.MustAdd(sequence.Sequence{ID: fmt.Sprintf("r%d", i), Values: runs(48, 6)})
		}
		q := runs(2+rng.Intn(5), 3)
		window := 1 + trial%3
		for _, opts := range []Options{
			{Kind: categorize.KindMaxEntropy, Categories: 2},
			{Kind: categorize.KindMaxEntropy, Categories: 2, Sparse: true},
			{Kind: categorize.KindMaxEntropy, Categories: 2, Sparse: true, Window: window},
			{Kind: categorize.KindIdentity, Window: window},
			{Kind: categorize.KindIdentity, Sparse: true},
			{Kind: categorize.KindIdentity, Sparse: true, Window: window},
		} {
			atTies(fmt.Sprintf("trial %d d=2 %v sparse=%v w=%d", trial, opts.Kind, opts.Sparse, opts.Window), data, opts, q, 10)
		}
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

// TestOpenExistingIndex: an index reopened from its tree file and its
// record — whose scheme is a category scheme, or at dimension 2 a grid, by which
// Encode re-encodes the data on every core — returns the answers it was
// built to.
func TestOpenExistingIndex(t *testing.T) {
	reopens := func(data *sequence.Dataset, opts Options, q []float64, eps float64) {
		t.Helper()
		path := filepath.Join(t.TempDir(), "keep.twt")
		ix, err := Build(data, path, opts)
		if err != nil {
			t.Fatal(err)
		}
		if bs := ix.BuildStats; bs.Suffixes != int(ix.Tree.NumLeaves()) || bs.Nodes != int(ix.Tree.NumNodes()) {
			t.Errorf("BuildStats = %+v, tree has %d leaves / %d nodes", bs, ix.Tree.NumLeaves(), ix.Tree.NumNodes())
		}
		want, _, err := search(ix, q, eps)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := (IndexRecord{Window: ix.Window, PoolPages: 16, Scheme: ix.Scheme}).Write(&buf); err != nil {
			t.Fatal(err)
		}
		ix.Close()
		rec, err := ReadIndexRecord(&buf)
		if err != nil {
			t.Fatal(err)
		}
		re, err := Open(data, rec.Scheme, path, rec.PoolPages, rec.Window)
		if err != nil {
			t.Fatal(err)
		}
		defer re.Close()
		got, _, err := search(re, q, eps)
		if err != nil {
			t.Fatal(err)
		}
		if !matchesBitIdentical(got, want) {
			t.Fatalf("d=%d: reopened index returns %d answers, built one %d", data.Dim(), len(got), len(want))
		}
	}
	rng := rand.New(rand.NewSource(347))
	data := randomWalkDataset(rng, 4, 20)
	reopens(data, Options{Kind: categorize.KindMaxEntropy, Categories: 5, Sparse: true}, randomQuery(rng, 5), 7.5)
	rng = rand.New(rand.NewSource(517))
	vec := randomPointDataset(rng, 4, 20, 2)
	reopens(vec, Options{Categories: 4, Sparse: true}, randomPointQuery(rng, 5, 2), 9.5)
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
