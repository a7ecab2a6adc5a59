package multivar

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"twsearch/internal/categorize"
	"twsearch/internal/suffixtree"
)

func TestDatasetBinaryRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(501))
	for trial := 0; trial < 10; trial++ {
		dim := 1 + rng.Intn(4)
		d := randomVecDataset(rng, 1+rng.Intn(5), 20, dim)
		var buf bytes.Buffer
		if err := d.WriteBinary(&buf); err != nil {
			t.Fatal(err)
		}
		got, err := ReadBinary(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if got.Dim() != d.Dim() || got.Len() != d.Len() {
			t.Fatal("header mismatch")
		}
		for i := 0; i < d.Len(); i++ {
			if got.Seq(i).ID != d.Seq(i).ID || !reflect.DeepEqual(got.Points(i), d.Points(i)) {
				t.Fatalf("sequence %d differs", i)
			}
		}
	}
}

func TestDatasetFileRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(503))
	d := randomVecDataset(rng, 3, 15, 2)
	path := filepath.Join(t.TempDir(), "vec.twvdb")
	if err := d.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != d.Len() {
		t.Fatal("length mismatch")
	}
}

func TestDatasetBadMagic(t *testing.T) {
	if _, err := ReadBinary(bytes.NewReader([]byte("XXXXXXXXgarbage"))); err == nil {
		t.Fatal("garbage accepted")
	}
}

// A stream whose point count promises more than it holds — here every count
// up to the largest the field can carry — is a short read, not an allocation
// of whatever the count says; a zero dimension, whose points would never run
// the stream dry, is refused outright.
func TestDatasetDeclaredLengthBeyondStream(t *testing.T) {
	d := NewDataset(2)
	if _, err := d.Add(Sequence{ID: "seed", Points: [][]float64{{1, 2}, {2.5, -3}}}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := d.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	const nAt = 8 + 2 + 4 + 2 + len("seed") // magic, dim, count, idLen, id
	for _, n := range []uint32{3, 1 << 20, math.MaxUint32} {
		binary.LittleEndian.PutUint32(raw[nAt:], n)
		if _, err := ReadBinary(bytes.NewReader(raw)); !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Errorf("%d points declared, 2 present: err = %v, want io.ErrUnexpectedEOF", n, err)
		}
	}
	binary.LittleEndian.PutUint16(raw[8:], 0)
	if _, err := ReadBinary(bytes.NewReader(raw)); err == nil {
		t.Error("points of dimension 0 accepted")
	}
}

func TestGridRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(507))
	data := randomVecDataset(rng, 4, 25, 3)
	grid, err := FitGrid(data, categorize.KindMaxEntropy, 5)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := grid.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadGrid(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumCells() != grid.NumCells() {
		t.Fatalf("cells = %d, want %d", got.NumCells(), grid.NumCells())
	}
	// Same encoding and boxes after the round trip.
	for i := 0; i < data.Len(); i++ {
		a, err := grid.Encode(data.Points(i))
		if err != nil {
			t.Fatal(err)
		}
		b, err := got.Encode(data.Points(i))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("encoding differs for sequence %d", i)
		}
	}
	for s := 0; s < grid.NumCells(); s++ {
		a, b := grid.Box(suffixtree.Symbol(s)), got.Box(suffixtree.Symbol(s))
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("box %d differs", s)
		}
	}
	if _, err := ReadGrid(bytes.NewReader([]byte("XXXXXXXXjunkjunk"))); err == nil {
		t.Fatal("garbage grid accepted")
	}
}

// Windowed multivariate search must equal the windowed scan.
func TestMultivarWindowedNoFalseDismissals(t *testing.T) {
	rng := rand.New(rand.NewSource(509))
	for trial := 0; trial < 8; trial++ {
		dim := 1 + rng.Intn(2)
		data := randomVecDataset(rng, 2+rng.Intn(3), 18, dim)
		q := randomVecQuery(rng, 6, dim)
		eps := float64(rng.Intn(8)) + 0.5
		window := 1 + rng.Intn(5)
		for _, sparse := range []bool{false, true} {
			ix, err := Build(data, filepath.Join(t.TempDir(), "w.twt"), Options{
				CatsPerDim: 1 + rng.Intn(3), Sparse: sparse, Window: window,
			})
			if err != nil {
				t.Fatal(err)
			}
			want, _, err := SeqScan(data, q, eps, window)
			if err != nil {
				t.Fatal(err)
			}
			got, _, err := ix.Search(bg, q, eps)
			ix.Close()
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("trial %d sparse=%v w=%d: %d vs %d", trial, sparse, window, len(got), len(want))
			}
			for i := range got {
				if got[i].Ref != want[i].Ref || math.Abs(got[i].Distance-want[i].Distance) > 1e-9 {
					t.Fatalf("trial %d: match %d differs", trial, i)
				}
			}
		}
	}
}

// Length-filtered multivariate indexes return exactly the scan answers of
// at least the floor length.
func TestMultivarMinAnswerLen(t *testing.T) {
	rng := rand.New(rand.NewSource(511))
	for trial := 0; trial < 6; trial++ {
		data := randomVecDataset(rng, 3, 20, 2)
		q := randomVecQuery(rng, 5, 2)
		eps := float64(rng.Intn(8)) + 0.5
		minLen := 2 + rng.Intn(4)
		ix, err := Build(data, filepath.Join(t.TempDir(), "ml.twt"), Options{
			CatsPerDim: 3, Sparse: trial%2 == 0, MinAnswerLen: minLen,
		})
		if err != nil {
			t.Fatal(err)
		}
		if ix.MinAnswerLen() != minLen {
			t.Fatalf("MinAnswerLen = %d", ix.MinAnswerLen())
		}
		got, _, err := ix.Search(bg, q, eps)
		ix.Close()
		if err != nil {
			t.Fatal(err)
		}
		all, _, err := SeqScan(data, q, eps, -1)
		if err != nil {
			t.Fatal(err)
		}
		var want []Match
		for _, m := range all {
			if m.Ref.End-m.Ref.Start >= minLen {
				want = append(want, m)
			}
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d vs %d", trial, len(got), len(want))
		}
		for i := range got {
			if got[i].Ref != want[i].Ref {
				t.Fatalf("trial %d: match %d differs", trial, i)
			}
		}
	}
}

func TestMultivarKNN(t *testing.T) {
	rng := rand.New(rand.NewSource(513))
	data := randomVecDataset(rng, 3, 20, 2)
	ix, err := Build(data, filepath.Join(t.TempDir(), "knn.twt"), Options{CatsPerDim: 3, Sparse: true})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	q := randomVecQuery(rng, 5, 2)
	k := 7
	got, gotStats, err := ix.SearchKNN(bg, q, k)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != k {
		t.Fatalf("kNN returned %d", len(got))
	}
	// The stats are every expansion round's, summed — the envelope gate's
	// counters included: replay the rounds as plain range searches.
	step := 0.0
	for i := 1; i < len(q); i++ {
		step += Base(q[i], q[i-1])
	}
	var want Stats
	for eps := step/float64(len(q)) + 1e-9; ; eps *= 4 {
		ms, st, err := ix.Search(bg, q, eps)
		if err != nil {
			t.Fatal(err)
		}
		want.Add(st)
		if len(ms) >= k {
			break
		}
	}
	want.Answers = uint64(k)
	if mExactStats(gotStats) != mExactStats(want) || want.LBCells == 0 || want.EnvelopePruned == 0 {
		t.Fatalf("kNN stats %v, want the rounds' sum %v", mExactStats(gotStats), mExactStats(want))
	}
	all, _, err := SeqScan(data, q, 1e18, -1)
	if err != nil {
		t.Fatal(err)
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].Distance < all[j].Distance })
	kth := all[k-1].Distance
	for _, m := range got {
		if m.Distance > kth+1e-9 {
			t.Fatalf("kNN distance %v beyond true kth %v", m.Distance, kth)
		}
	}
	if _, _, err := ix.SearchKNN(bg, q, 0); err == nil {
		t.Error("k=0 accepted")
	}
	if _, _, err := ix.SearchKNN(bg, nil, 2); err == nil {
		t.Error("empty query accepted")
	}
}

// A k above the number of subsequences there are returns all of them, as
// the scan finds them at an infinite threshold: the distance bound the
// expansion stops at, summed over dimensions, is no smaller than any
// vector distance. A flat query (step 0) climbs from 1e-9 to that bound.
func TestMultivarKNNAboveReachable(t *testing.T) {
	rng := rand.New(rand.NewSource(521))
	data := randomVecDataset(rng, 4, 15, 3)
	ix, err := Build(data, filepath.Join(t.TempDir(), "all.twt"), Options{CatsPerDim: 3, Sparse: true})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	for _, q := range [][][]float64{randomVecQuery(rng, 4, 3), {{1, 2, 3}, {1, 2, 3}}} {
		all, _, err := SeqScan(data, q, math.Inf(1), -1)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := ix.SearchKNN(bg, q, len(all)+1)
		if err != nil {
			t.Fatal(err)
		}
		if !mMatchesBitIdentical(got, all) {
			t.Fatalf("q=%v: k-NN with k = %d returned %d, want the %d subsequences there are", q, len(all)+1, len(got), len(all))
		}
	}
}

// Open must reproduce a built index's answers from the persisted grid.
func TestMultivarOpen(t *testing.T) {
	rng := rand.New(rand.NewSource(517))
	data := randomVecDataset(rng, 4, 20, 2)
	dir := t.TempDir()
	path := filepath.Join(dir, "mv.twt")
	ix, err := Build(data, path, Options{CatsPerDim: 4, Sparse: true})
	if err != nil {
		t.Fatal(err)
	}
	q := randomVecQuery(rng, 5, 2)
	want, _, err := ix.Search(bg, q, 9.5)
	if err != nil {
		t.Fatal(err)
	}
	// Persist and reload the grid, then reopen.
	var buf bytes.Buffer
	if err := ix.Grid.Write(&buf); err != nil {
		t.Fatal(err)
	}
	ix.Close()
	grid, err := ReadGrid(&buf)
	if err != nil {
		t.Fatal(err)
	}
	re, err := Open(data, grid, path, 16, -1)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	got, _, err := re.Search(bg, q, 9.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("reopened: %d vs %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("match %d differs after reopen", i)
		}
	}
}

func TestMultivarWindowTable(t *testing.T) {
	rng := rand.New(rand.NewSource(521))
	for trial := 0; trial < 50; trial++ {
		dim := 1 + rng.Intn(3)
		q := randomVecQuery(rng, 6, dim)
		s := randomVecQuery(rng, 6, dim)
		w := len(q) + len(s)
		wide := NewTableWindow(q, w)
		var last float64
		for _, p := range s {
			last, _ = wide.AddRowPoint(p)
		}
		if want := Distance(s, q); math.Abs(last-want) > 1e-9 {
			t.Fatalf("wide window %v != unconstrained %v", last, want)
		}
	}
	// Too-narrow band yields Inf.
	q := [][]float64{{0}}
	s := [][]float64{{0}, {0}, {0}, {0}}
	tab := NewTableWindow(q, 1)
	var last float64
	for _, p := range s {
		last, _ = tab.AddRowPoint(p)
	}
	if !math.IsInf(last, 1) {
		t.Fatalf("narrow band distance = %v, want Inf", last)
	}
}

func TestMultivarBuildOptionErrors(t *testing.T) {
	d := NewDataset(1)
	d.MustAdd(Sequence{ID: "a", Points: [][]float64{{1}, {2}, {3}}})
	// Build with every option combination must produce a searchable index.
	for _, opts := range []Options{
		{},
		{Sparse: true},
		{Window: 2},
		{MinAnswerLen: 2, Sparse: true},
		{Kind: categorize.KindEqualLength, CatsPerDim: 2},
	} {
		path := filepath.Join(t.TempDir(), fmt.Sprintf("o%v%v.twt", opts.Sparse, opts.Window))
		ix, err := Build(d, path, opts)
		if err != nil {
			t.Fatalf("%+v: %v", opts, err)
		}
		if _, _, err := ix.Search(bg, [][]float64{{2}}, 1); err != nil {
			t.Fatalf("%+v: search: %v", opts, err)
		}
		ix.Close()
	}
}

func TestVectorAddRejectsNonFinite(t *testing.T) {
	d := NewDataset(2)
	if _, err := d.Add(Sequence{ID: "nan", Points: [][]float64{{1, math.NaN()}}}); err == nil {
		t.Error("NaN accepted")
	}
	if _, err := d.Add(Sequence{ID: "inf", Points: [][]float64{{math.Inf(1), 0}}}); err == nil {
		t.Error("Inf accepted")
	}
}

func TestMultivarSearchVisit(t *testing.T) {
	rng := rand.New(rand.NewSource(541))
	data := randomVecDataset(rng, 3, 20, 2)
	ix, err := Build(data, filepath.Join(t.TempDir(), "sv.twt"), Options{CatsPerDim: 3, Sparse: true})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	q := randomVecQuery(rng, 5, 2)
	want, _, err := ix.Search(bg, q, 9.5)
	if err != nil {
		t.Fatal(err)
	}
	var got []Match
	if _, err := ix.SearchVisit(bg, q, 9.5, func(m Match) bool {
		got = append(got, m)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	sort.Slice(got, func(i, j int) bool {
		a, b := got[i].Ref, got[j].Ref
		if a.Seq != b.Seq {
			return a.Seq < b.Seq
		}
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		return a.End < b.End
	})
	if len(got) != len(want) {
		t.Fatalf("streamed %d, Search %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("match %d differs", i)
		}
	}
	if len(want) > 2 {
		count := 0
		if _, err := ix.SearchVisit(bg, q, 9.5, func(Match) bool {
			count++
			return count < 2
		}); err != nil {
			t.Fatal(err)
		}
		if count != 2 {
			t.Fatalf("early stop delivered %d", count)
		}
	}
	if _, err := ix.SearchVisit(bg, q, 9.5, nil); err == nil {
		t.Error("nil visitor accepted")
	}
}

// A grid small enough for a lookup table and the same grid with the map
// alone encode alike, refuse the same unseen point and write the same file;
// a grid too large for the table (41³ cells) goes by the map; and the texts
// a fit hands to Build are the ones encodeAll makes at Open.
func TestGridTableMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(521))
	data := NewDataset(3)
	for i := 0; i < 6; i++ {
		points := make([][]float64, 60)
		for j := range points {
			points[j] = []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()} // no ties: every category asked for is made
		}
		data.MustAdd(Sequence{ID: fmt.Sprintf("m%d", i), Points: points})
	}
	for _, cats := range []int{5, 41} {
		grid, fitted, err := fitGrid(data, categorize.KindMaxEntropy, cats)
		if err != nil {
			t.Fatal(err)
		}
		if (grid.table != nil) != (cats == 5) {
			t.Fatalf("%d categories per dimension: table of %d entries", cats, len(grid.table))
		}
		byMap := *grid
		byMap.table = nil
		reencoded, err := encodeAll(data, &byMap)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < data.Len(); i++ {
			want, err := grid.Encode(data.Points(i))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(fitted.Text(i), want) || !reflect.DeepEqual(reencoded.Text(i), want) {
				t.Fatalf("%d categories: sequence %d: the fit's text, the map's and the table's differ", cats, i)
			}
		}
		unseen := [][]float64{{1e9, -1e9, 1e9}}
		if _, err := grid.Encode(unseen); err == nil {
			t.Errorf("%d categories: a point in no fitted cell was encoded", cats)
		}
		if _, err := byMap.Encode(unseen); err == nil {
			t.Errorf("%d categories: a point in no fitted cell was encoded by the map", cats)
		}
		var a, b bytes.Buffer
		if err := errors.Join(grid.Write(&a), byMap.Write(&b)); err != nil {
			t.Fatal(err)
		}
		reread, err := ReadGrid(bytes.NewReader(a.Bytes()))
		if err != nil || !bytes.Equal(a.Bytes(), b.Bytes()) || (reread.table != nil) != (grid.table != nil) {
			t.Fatalf("%d categories: grid files differ between table and map, or the table is lost on reading (err = %v)", cats, err)
		}
	}
}

// WriteBinary's bytes are pinned: the digest is of what the per-point
// binary.Write encoder this one replaced wrote for the same dataset.
func TestWriteBinaryGolden(t *testing.T) {
	d := NewDataset(3)
	d.MustAdd(Sequence{ID: "p", Points: [][]float64{{1, -2.5, math.Copysign(0, -1)}, {5e-324, math.MaxFloat64, 0}}})
	long := make([][]float64, 3000) // more coordinates than two conversion buffers
	for i := range long {
		long[i] = []float64{float64(i*i%1009) / 7, float64(i), -float64(i%13) / 3}
	}
	d.MustAdd(Sequence{ID: "long-" + strings.Repeat("x", 300), Points: long})
	d.MustAdd(Sequence{ID: "z", Points: [][]float64{{4, 2, 0}}})
	var buf bytes.Buffer
	if err := d.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	const want = "d87c408f58e24b5e23a01f9a563fdfe0c7d80fb551ecf026e1ff7129f7bd08ac"
	if sum := sha256.Sum256(buf.Bytes()); buf.Len() != 72411 || hex.EncodeToString(sum[:]) != want {
		t.Fatalf("WriteBinary wrote %d bytes with sha256 %x, want 72411 bytes with %s", buf.Len(), sum, want)
	}
}

// An id the format's 16-bit length cannot carry is refused — with the
// sequence named — not written with a wrapped length that no reader can
// follow.
func TestWriteBinaryLongID(t *testing.T) {
	d := NewDataset(1)
	d.MustAdd(Sequence{ID: "fine", Points: [][]float64{{1}}})
	d.MustAdd(Sequence{ID: strings.Repeat("y", math.MaxUint16+1), Points: [][]float64{{2}}})
	if err := d.WriteBinary(io.Discard); err == nil || !strings.Contains(err.Error(), "sequence 1") || !strings.Contains(err.Error(), "too long") {
		t.Fatalf("id of %d bytes: err = %v, want a too-long error naming sequence 1", math.MaxUint16+1, err)
	}
}

// Sequences with one point fewer than a backing array holds, exactly as
// many, and one more come back point for point in every dimension, no point
// reaching into its neighbour's coordinates; a stream cut among the points
// of such a sequence is a wrapped io.ErrUnexpectedEOF.
func TestBinaryChunkBoundaries(t *testing.T) {
	for _, dim := range []int{1, 2, 7} {
		perArray := readChunk / dim
		for n := perArray - 1; n <= perArray+1; n++ {
			points := make([][]float64, n)
			for i := range points {
				points[i] = make([]float64, dim)
				for k := range points[i] {
					points[i][k] = float64(i%977) + float64(k)/8
				}
			}
			d := NewDataset(dim)
			d.MustAdd(Sequence{ID: "first", Points: points[:1]})
			d.MustAdd(Sequence{ID: "edge", Points: points})
			var buf bytes.Buffer
			if err := d.WriteBinary(&buf); err != nil {
				t.Fatal(err)
			}
			raw := buf.Bytes()
			got, err := ReadBinary(bytes.NewReader(raw))
			if err != nil || !reflect.DeepEqual(got.Points(1), points) {
				t.Fatalf("dim %d, %d points: round trip differs (err = %v)", dim, n, err)
			}
			for _, p := range got.Points(1) {
				if cap(p) != dim {
					t.Fatalf("dim %d, %d points: a point has capacity %d", dim, n, cap(p))
				}
			}
			for _, cut := range []int{len(raw) - 1, len(raw) - 8*dim, len(raw) - 8*dim*2, len(raw) - 8*dim*(n-1)} {
				if _, err := ReadBinary(bytes.NewReader(raw[:cut])); !errors.Is(err, io.ErrUnexpectedEOF) {
					t.Fatalf("dim %d, %d points, stream cut at %d of %d: err = %v, want io.ErrUnexpectedEOF", dim, n, cut, len(raw), err)
				}
			}
		}
	}
}

// BenchmarkDatasetBinaryIO writes and reads back the benchmark's trajectory
// database shape: 800 sequences of 200 two-dimensional points.
func BenchmarkDatasetBinaryIO(b *testing.B) {
	d := NewDataset(2)
	rng := rand.New(rand.NewSource(523))
	for i := 0; i < 800; i++ {
		points := make([][]float64, 200)
		for j := range points {
			points[j] = []float64{rng.NormFloat64(), rng.NormFloat64()}
		}
		d.MustAdd(Sequence{ID: fmt.Sprintf("traj-%05d", i), Points: points})
	}
	var buf bytes.Buffer
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := d.WriteBinary(&buf); err != nil {
			b.Fatal(err)
		}
		if _, err := ReadBinary(&buf); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(8 * 2 * 200 * 800)
}
