package multivar_test

import (
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"slices"
	"testing"
	"twsearch/internal/core"
	. "twsearch/internal/multivar"

	"twsearch/internal/categorize"
	"twsearch/internal/dtw"
)

func TestBaseAndBox(t *testing.T) {
	if dtw.BasePoint([]float64{1, 2}, []float64{3, 0}) != 4 {
		t.Fatal("Base wrong")
	}
	box := dtw.Box{Lo: []float64{0, 10}, Hi: []float64{5, 20}}
	if got := dtw.BaseBox([]float64{3, 15}, box); got != 0 {
		t.Fatalf("inside box = %v", got)
	}
	if got := dtw.BaseBox([]float64{7, 25}, box); got != 2+5 {
		t.Fatalf("outside box = %v, want 7", got)
	}
}

func TestDistanceReducesToUnivariate(t *testing.T) {
	// dim=1 must agree with dtw.Distance semantics; spot check Figure 1.
	a := [][]float64{{3}, {4}, {3}}
	b := [][]float64{{4}, {5}, {6}, {7}, {6}, {6}}
	if got := dtw.DistancePoints(a, b); got != 12 {
		t.Fatalf("Distance = %v, want 12", got)
	}
}

func TestDatasetValidation(t *testing.T) {
	d := NewDataset(2)
	if _, err := d.Add(Sequence{ID: "", Points: [][]float64{{1, 2}}}); err == nil {
		t.Error("empty id accepted")
	}
	if _, err := d.Add(Sequence{ID: "a", Points: nil}); err == nil {
		t.Error("empty points accepted")
	}
	if _, err := d.Add(Sequence{ID: "a", Points: [][]float64{{1}}}); err == nil {
		t.Error("wrong dim accepted")
	}
	if _, err := d.Add(Sequence{ID: "a", Points: [][]float64{{1, 2}}}); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Add(Sequence{ID: "a", Points: [][]float64{{3, 4}}}); err == nil {
		t.Error("duplicate id accepted")
	}
}

// Multivariate no-false-dismissal: index search equals sequential scan.
func TestMultivarNoFalseDismissals(t *testing.T) {
	rng := rand.New(rand.NewSource(409))
	dir := t.TempDir()
	for trial := 0; trial < 10; trial++ {
		dim := 1 + rng.Intn(3)
		data := randomVecDataset(rng, 2+rng.Intn(3), 20, dim)
		q := randomVecQuery(rng, 6, dim)
		eps := float64(rng.Intn(10)) + 0.5
		for _, sparse := range []bool{false, true} {
			path := filepath.Join(dir, fmt.Sprintf("mix-%d-%v.twt", trial, sparse))
			ix, err := build(data, path, core.Options{
				Kind:       categorize.KindMaxEntropy,
				Categories: 1 + rng.Intn(4),
				Sparse:     sparse,
			})
			if err != nil {
				t.Fatalf("trial %d: Build: %v", trial, err)
			}
			want, _, err := SeqScan(data, q, eps, -1)
			if err != nil {
				t.Fatal(err)
			}
			got, stats, err := ix.Search(bg, Flatten(q), eps)
			if err != nil {
				t.Fatal(err)
			}
			ix.Close()
			if len(got) != len(want) {
				t.Fatalf("trial %d sparse=%v eps=%v: index %d matches, scan %d",
					trial, sparse, eps, len(got), len(want))
			}
			for i := range got {
				if got[i].Ref != want[i].Ref || math.Abs(got[i].Distance-want[i].Distance) > 1e-9 {
					t.Fatalf("trial %d sparse=%v: match %d differs: %+v vs %+v",
						trial, sparse, i, got[i], want[i])
				}
			}
			if stats.Candidates == 0 && stats.Answers > 0 {
				t.Error("answers found without any candidates")
			}
		}
	}
}

// TestNoFalseDismissalsAtTies is core.TestNoFalseDismissalsAtTies at
// dimension 2: 2-D points on a 3×3 integer lattice in runs of one to six
// equal points, eps set to each distinct exact distance of the scan's
// answers, and every grid shape — ME and identity cells, dense and sparse,
// with and without a window — must return the scan's answers bit for bit.
// The grid filter is never exact, so a shifted start reaches verification
// only through a leaf the descent collects below a pruned node: the tree
// must be deep enough to prune under a qualifying path, hence eight
// sequences.
func TestNoFalseDismissalsAtTies(t *testing.T) {
	rng := rand.New(rand.NewSource(421))
	dir := t.TempDir()
	point := func() []float64 { return []float64{float64(rng.Intn(3)), float64(rng.Intn(3))} }
	runs := func(n, maxRun int) [][]float64 {
		var out [][]float64
		for len(out) < n {
			p := point()
			for r := 1 + rng.Intn(maxRun); r > 0 && len(out) < n; r-- {
				out = append(out, p)
			}
		}
		return out
	}
	for trial := 0; trial < 4; trial++ {
		data := NewDataset(2)
		for i := 0; i < 8; i++ {
			mustAdd(data, Sequence{ID: fmt.Sprintf("r%d", i), Points: runs(48, 6)})
		}
		q := runs(2+rng.Intn(5), 3)
		window := 1 + trial%3
		for oi, opts := range []core.Options{
			{Kind: categorize.KindMaxEntropy, Categories: 2},
			{Kind: categorize.KindMaxEntropy, Categories: 2, Sparse: true},
			{Kind: categorize.KindMaxEntropy, Categories: 2, Sparse: true, Window: window},
			{Kind: categorize.KindIdentity, Window: window},
			{Kind: categorize.KindIdentity, Sparse: true},
			{Kind: categorize.KindIdentity, Sparse: true, Window: window},
		} {
			ix, err := build(data, filepath.Join(dir, fmt.Sprintf("tie-%d-%d.twt", trial, oi)), opts)
			if err != nil {
				t.Fatal(err)
			}
			all, _, err := SeqScan(data, q, 10, ix.Window)
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
				got, _, err := ix.Search(bg, Flatten(q), eps)
				if err != nil {
					t.Fatal(err)
				}
				if !mMatchesBitIdentical(got, want) {
					t.Errorf("trial %d %v sparse=%v w=%d q=%v eps=%v: index %d answers, scan %d",
						trial, opts.Kind, opts.Sparse, opts.Window, q, eps, len(got), len(want))
					break
				}
			}
			ix.Close()
		}
	}
}

// TestAdmissionKeepsTies is core's tie test at dimension 2: a start
// whose first point is exactly eps from the query's first, by the
// city-block base distance, and whose later points match exactly, is an
// answer at distance eps, so it must pass admission (Dead's > is strict)
// and be verified on every index. Its windowed arms are core's too, with
// the bound's gap terms summed over the dimensions: under window 1 the
// answer [2, 6) at distance 0 has a bound of exactly 0, and [8, 12) at
// distance 1 one of exactly 1, from the gaps 0.5 of (2.5, 2) and (2, 2.5).
func TestAdmissionKeepsTies(t *testing.T) {
	pts := func(vs ...float64) [][]float64 {
		var out [][]float64
		for i := 0; i < len(vs); i += 2 {
			out = append(out, []float64{vs[i], vs[i+1]})
		}
		return out
	}
	data := NewDataset(2)
	mustAdd(data, Sequence{ID: "tie", Points: pts(7, 1, 0, 4, 3, 2, 2, 2, 2, 2, 2, 2, 9, 6, 5, 0, 1, 3)})
	mustAdd(data, Sequence{ID: "other", Points: pts(4, 4, 6, 1, 0, 0, 9, 8, 1, 2, 3, 5, 2, 2, 7, 7)})
	mustAdd(data, Sequence{ID: "windowed", Points: pts(7, 1, 0, 4, 2, 2, 2, 2, 2, 2, 2, 2, 9, 6, 5, 0, 2, 2, 2.5, 2, 2, 2.5, 2, 2, 8, 0)})
	for _, c := range []struct {
		q      [][]float64
		window int
		eps    float64
		tie    Ref
	}{
		{pts(2, 2, 2, 2, 2, 2), -1, 1, Ref{Seq: 0, Start: 2, End: 5}},
		{pts(2, 2, 2, 2, 2, 2, 2, 2), 1, 0, Ref{Seq: 2, Start: 2, End: 6}},
		{pts(2, 2, 2, 2, 2, 2, 2, 2), 1, 1, Ref{Seq: 2, Start: 8, End: 12}},
	} {
		want, _, err := SeqScan(data, c.q, c.eps, c.window)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.ContainsFunc(want, func(m Match) bool { return m.Ref == c.tie && m.Distance == c.eps }) {
			t.Fatalf("w=%d: the scan has no answer %v at distance %v: the fixture has no tie", c.window, c.tie, c.eps)
		}
		for oi, opts := range []core.Options{
			{Kind: categorize.KindMaxEntropy, Categories: 2},
			{Kind: categorize.KindMaxEntropy, Categories: 2, Sparse: true},
			{Kind: categorize.KindIdentity},
			{Kind: categorize.KindIdentity, Sparse: true},
		} {
			opts.Window = c.window
			ix, err := build(data, filepath.Join(t.TempDir(), fmt.Sprintf("tie-%d.twt", oi)), opts)
			if err != nil {
				t.Fatal(err)
			}
			got, _, err := ix.Search(bg, Flatten(c.q), c.eps)
			ix.Close()
			if err != nil {
				t.Fatal(err)
			}
			if !mMatchesBitIdentical(got, want) {
				t.Errorf("%+v eps=%v: index %d answers, scan %d (a start at exactly eps must be verified)", opts, c.eps, len(got), len(want))
			}
		}
	}
}

func TestSearchValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(419))
	data := randomVecDataset(rng, 2, 10, 2)
	ix, err := build(data, filepath.Join(t.TempDir(), "v.twt"), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	if _, _, err := ix.Search(bg, nil, 1); err == nil {
		t.Error("empty query accepted")
	}
	if _, _, err := ix.Search(bg, []float64{1}, 1); err == nil {
		t.Error("wrong-dim query accepted")
	}
	if _, _, err := ix.Search(bg, []float64{1, 2}, -1); err == nil {
		t.Error("negative eps accepted")
	}
	if _, st, err := ix.Search(bg, []float64{1, 2}, math.NaN()); err == nil || st.NodesVisited != 0 {
		t.Errorf("NaN eps: err %v after %d nodes, want a refusal before the traversal", err, st.NodesVisited)
	}
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		q := [][]float64{{1, 2}, {3, v}}
		if _, _, err := ix.Search(bg, Flatten(q), 1); err == nil {
			t.Errorf("query coordinate %v accepted", v)
		}
		if _, _, err := searchKNN(bg, ix, Flatten(q), 2); err == nil {
			t.Errorf("k-NN query coordinate %v accepted", v)
		}
		if _, _, err := core.SeqScan(data.Dataset, Flatten(q), 1, -1); err == nil {
			t.Errorf("SeqScan query coordinate %v accepted", v)
		}
	}
	if _, _, err := core.SeqScan(data.Dataset, []float64{1, 2}, math.NaN(), -1); err == nil {
		t.Error("SeqScan NaN eps accepted")
	}
}

func TestTableMatchesDistance(t *testing.T) {
	rng := rand.New(rand.NewSource(421))
	for trial := 0; trial < 100; trial++ {
		dim := 1 + rng.Intn(3)
		q := randomVecQuery(rng, 6, dim)
		s := randomVecQuery(rng, 6, dim)
		tab := newTable(q, -1)
		var last float64
		for _, p := range s {
			last, _ = tab.AddRowPoint(p)
		}
		if want := dtw.DistancePoints(s, q); math.Abs(last-want) > 1e-9 {
			t.Fatalf("table %v != distance %v", last, want)
		}
	}
}
