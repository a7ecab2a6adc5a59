package multivar

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"slices"
	"testing"

	"twsearch/internal/categorize"
)

var bg = context.Background()

func mMatchesBitIdentical(a, b []Match) bool {
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

// mExactStats strips Stats to the counters a search pins exactly
// (everything but wall clock and the index-wide pool deltas).
func mExactStats(s Stats) [8]uint64 {
	return [8]uint64{s.NodesVisited, s.FilterCells, s.PostCells, s.Candidates, s.FalseAlarms, s.Answers, s.EnvelopePruned, s.LBCells}
}

func randomVecDataset(rng *rand.Rand, nSeq, maxLen, dim int) *Dataset {
	d := NewDataset(dim)
	for i := 0; i < nSeq; i++ {
		n := 2 + rng.Intn(maxLen-1)
		points := make([][]float64, n)
		v := make([]float64, dim)
		for k := range v {
			v[k] = float64(rng.Intn(10))
		}
		for j := range points {
			p := make([]float64, dim)
			for k := range p {
				v[k] += float64(rng.Intn(3) - 1)
				p[k] = v[k]
			}
			points[j] = p
		}
		d.MustAdd(Sequence{ID: fmt.Sprintf("m%d", i), Points: points})
	}
	return d
}

func randomVecQuery(rng *rand.Rand, maxLen, dim int) [][]float64 {
	n := 1 + rng.Intn(maxLen)
	q := make([][]float64, n)
	v := make([]float64, dim)
	for k := range v {
		v[k] = float64(rng.Intn(10))
	}
	for j := range q {
		p := make([]float64, dim)
		for k := range p {
			v[k] += float64(rng.Intn(3) - 1)
			p[k] = v[k]
		}
		q[j] = p
	}
	return q
}

func TestBaseAndBox(t *testing.T) {
	if Base([]float64{1, 2}, []float64{3, 0}) != 4 {
		t.Fatal("Base wrong")
	}
	box := Box{Lo: []float64{0, 10}, Hi: []float64{5, 20}}
	if got := BaseBox([]float64{3, 15}, box); got != 0 {
		t.Fatalf("inside box = %v", got)
	}
	if got := BaseBox([]float64{7, 25}, box); got != 2+5 {
		t.Fatalf("outside box = %v, want 7", got)
	}
}

func TestDistanceReducesToUnivariate(t *testing.T) {
	// dim=1 must agree with dtw.Distance semantics; spot check Figure 1.
	a := [][]float64{{3}, {4}, {3}}
	b := [][]float64{{4}, {5}, {6}, {7}, {6}, {6}}
	if got := Distance(a, b); got != 12 {
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

func TestFitGridBoxesContainPoints(t *testing.T) {
	rng := rand.New(rand.NewSource(401))
	data := randomVecDataset(rng, 5, 30, 3)
	grid, err := FitGrid(data, categorize.KindMaxEntropy, 4)
	if err != nil {
		t.Fatal(err)
	}
	if grid.NumCells() == 0 {
		t.Fatal("no cells")
	}
	for i := 0; i < data.Len(); i++ {
		syms, err := grid.Encode(data.Points(i))
		if err != nil {
			t.Fatal(err)
		}
		for j, p := range data.Points(i) {
			box := grid.Box(syms[j])
			for k := range p {
				if p[k] < box.Lo[k] || p[k] > box.Hi[k] {
					t.Fatalf("point %v outside its cell box %+v", p, box)
				}
			}
			// Lower bound of the point against its own box must be zero.
			if BaseBox(p, box) != 0 {
				t.Fatalf("BaseBox of member point = %v", BaseBox(p, box))
			}
		}
	}
}

func TestEncodeUnseenCellFails(t *testing.T) {
	// Only the diagonal cells (low,low) and (high,high) are observed; the
	// off-diagonal combination (low,high) has no cell symbol.
	d := NewDataset(2)
	d.MustAdd(Sequence{ID: "a", Points: [][]float64{{1, 1}, {10, 10}}})
	grid, err := FitGrid(d, categorize.KindEqualLength, 2)
	if err != nil {
		t.Fatal(err)
	}
	if grid.NumCells() != 2 {
		t.Fatalf("cells = %d, want 2", grid.NumCells())
	}
	if _, err := grid.Encode([][]float64{{1, 10}}); err == nil {
		t.Error("point in unseen cell encoded")
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
			ix, err := Build(data, path, Options{
				Kind:       categorize.KindMaxEntropy,
				CatsPerDim: 1 + rng.Intn(4),
				Sparse:     sparse,
			})
			if err != nil {
				t.Fatalf("trial %d: Build: %v", trial, err)
			}
			want, _, err := SeqScan(data, q, eps, -1)
			if err != nil {
				t.Fatal(err)
			}
			got, stats, err := ix.Search(bg, q, eps)
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

// TestNoFalseDismissalsAtTies is core.TestNoFalseDismissalsAtTies for the
// vector kernel: 2-D points on a 3×3 integer lattice in runs of one to six
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
			data.MustAdd(Sequence{ID: fmt.Sprintf("r%d", i), Points: runs(48, 6)})
		}
		q := runs(2+rng.Intn(5), 3)
		window := 1 + trial%3
		for oi, opts := range []Options{
			{Kind: categorize.KindMaxEntropy, CatsPerDim: 2},
			{Kind: categorize.KindMaxEntropy, CatsPerDim: 2, Sparse: true},
			{Kind: categorize.KindMaxEntropy, CatsPerDim: 2, Sparse: true, Window: window},
			{Kind: categorize.KindIdentity, Window: window},
			{Kind: categorize.KindIdentity, Sparse: true},
			{Kind: categorize.KindIdentity, Sparse: true, Window: window},
		} {
			ix, err := Build(data, filepath.Join(dir, fmt.Sprintf("tie-%d-%d.twt", trial, oi)), opts)
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
				got, _, err := ix.Search(bg, q, eps)
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

// TestAdmissionKeepsTies is core's tie test over the vector kernel: a start
// whose first point is exactly eps from the query's first, by the
// city-block base distance, and whose later points match exactly, is an
// answer at distance eps, so it must pass admission (Dead's > is strict)
// and be verified on every index.
func TestAdmissionKeepsTies(t *testing.T) {
	pts := func(vs ...float64) [][]float64 {
		var out [][]float64
		for i := 0; i < len(vs); i += 2 {
			out = append(out, []float64{vs[i], vs[i+1]})
		}
		return out
	}
	data := NewDataset(2)
	data.MustAdd(Sequence{ID: "tie", Points: pts(7, 1, 0, 4, 3, 2, 2, 2, 2, 2, 2, 2, 9, 6, 5, 0, 1, 3)})
	data.MustAdd(Sequence{ID: "other", Points: pts(4, 4, 6, 1, 0, 0, 9, 8, 1, 2, 3, 5, 2, 2, 7, 7)})
	q := pts(2, 2, 2, 2, 2, 2)
	const eps = 1.0
	tie := Ref{Seq: 0, Start: 2, End: 5}
	want, _, err := SeqScan(data, q, eps, -1)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.ContainsFunc(want, func(m Match) bool { return m.Ref == tie && m.Distance == eps }) {
		t.Fatalf("the scan has no answer %v at distance %v: the fixture has no tie", tie, eps)
	}
	for oi, opts := range []Options{
		{Kind: categorize.KindMaxEntropy, CatsPerDim: 2},
		{Kind: categorize.KindMaxEntropy, CatsPerDim: 2, Sparse: true},
		{Kind: categorize.KindIdentity},
		{Kind: categorize.KindIdentity, Sparse: true},
	} {
		ix, err := Build(data, filepath.Join(t.TempDir(), fmt.Sprintf("tie-%d.twt", oi)), opts)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := ix.Search(bg, q, eps)
		ix.Close()
		if err != nil {
			t.Fatal(err)
		}
		if !mMatchesBitIdentical(got, want) {
			t.Errorf("%+v: index %d answers, scan %d (a start at exactly eps must be verified)", opts, len(got), len(want))
		}
	}
}

func TestSearchValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(419))
	data := randomVecDataset(rng, 2, 10, 2)
	ix, err := Build(data, filepath.Join(t.TempDir(), "v.twt"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	if _, _, err := ix.Search(bg, nil, 1); err == nil {
		t.Error("empty query accepted")
	}
	if _, _, err := ix.Search(bg, [][]float64{{1}}, 1); err == nil {
		t.Error("wrong-dim query accepted")
	}
	if _, _, err := ix.Search(bg, [][]float64{{1, 2}}, -1); err == nil {
		t.Error("negative eps accepted")
	}
	if _, st, err := ix.Search(bg, [][]float64{{1, 2}}, math.NaN()); err == nil || st.NodesVisited != 0 {
		t.Errorf("NaN eps: err %v after %d nodes, want a refusal before the traversal", err, st.NodesVisited)
	}
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		q := [][]float64{{1, 2}, {3, v}}
		if _, _, err := ix.Search(bg, q, 1); err == nil {
			t.Errorf("query coordinate %v accepted", v)
		}
		if _, _, err := ix.SearchKNN(bg, q, 2); err == nil {
			t.Errorf("k-NN query coordinate %v accepted", v)
		}
		if _, _, err := SeqScan(data, q, 1, -1); err == nil {
			t.Errorf("SeqScan query coordinate %v accepted", v)
		}
	}
	if _, _, err := SeqScan(data, [][]float64{{1, 2}}, math.NaN(), -1); err == nil {
		t.Error("SeqScan NaN eps accepted")
	}
}

func TestTableMatchesDistance(t *testing.T) {
	rng := rand.New(rand.NewSource(421))
	for trial := 0; trial < 100; trial++ {
		dim := 1 + rng.Intn(3)
		q := randomVecQuery(rng, 6, dim)
		s := randomVecQuery(rng, 6, dim)
		tab := NewTable(q)
		var last float64
		for _, p := range s {
			last, _ = tab.AddRowPoint(p)
		}
		if want := Distance(s, q); math.Abs(last-want) > 1e-9 {
			t.Fatalf("table %v != distance %v", last, want)
		}
	}
}
