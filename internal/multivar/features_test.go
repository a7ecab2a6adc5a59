package multivar_test

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
	"twsearch/internal/core"
	. "twsearch/internal/multivar"
	"twsearch/internal/sequence"

	"twsearch/internal/categorize"
	"twsearch/internal/dtw"
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
		got, err := sequence.ReadBinary(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if got.Dim() != d.Dim() || got.Len() != d.Len() {
			t.Fatal("header mismatch")
		}
		for i := 0; i < d.Len(); i++ {
			if got.Seq(i).ID != d.Seq(i).ID || !reflect.DeepEqual(points(got, i), points(d, i)) {
				t.Fatalf("sequence %d differs", i)
			}
		}
	}
}

func TestDatasetFileRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(503))
	d := randomVecDataset(rng, 3, 15, 2)
	path := filepath.Join(t.TempDir(), "data.twdb")
	if err := d.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := sequence.LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != d.Len() {
		t.Fatal("length mismatch")
	}
}

func TestDatasetBadMagic(t *testing.T) {
	if _, err := sequence.ReadBinary(bytes.NewReader([]byte("XXXXXXXXgarbage"))); err == nil {
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
		if _, err := sequence.ReadBinary(bytes.NewReader(raw)); !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Errorf("%d points declared, 2 present: err = %v, want io.ErrUnexpectedEOF", n, err)
		}
	}
	binary.LittleEndian.PutUint16(raw[8:], 0)
	if _, err := sequence.ReadBinary(bytes.NewReader(raw)); err == nil {
		t.Error("points of dimension 0 accepted")
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
			ix, err := build(data, filepath.Join(t.TempDir(), "w.twt"), core.Options{
				Categories: 1 + rng.Intn(3), Sparse: sparse, Window: window,
			})
			if err != nil {
				t.Fatal(err)
			}
			want, _, err := SeqScan(data, q, eps, window)
			if err != nil {
				t.Fatal(err)
			}
			got, _, err := ix.Search(bg, Flatten(q), eps)
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
		ix, err := build(data, filepath.Join(t.TempDir(), "ml.twt"), core.Options{
			Categories: 3, Sparse: trial%2 == 0, MinAnswerLen: minLen,
		})
		if err != nil {
			t.Fatal(err)
		}
		if ix.MinAnswerLen() != minLen {
			t.Fatalf("MinAnswerLen = %d", ix.MinAnswerLen())
		}
		got, _, err := ix.Search(bg, Flatten(q), eps)
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
	ix, err := build(data, filepath.Join(t.TempDir(), "knn.twt"), core.Options{Categories: 3, Sparse: true})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	q := randomVecQuery(rng, 5, 2)
	k := 7
	got, gotStats, err := searchKNN(bg, ix, Flatten(q), k)
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
		step += dtw.BasePoint(q[i], q[i-1])
	}
	var want Stats
	for eps := step/float64(len(q)) + 1e-9; ; eps *= 4 {
		ms, st, err := ix.Search(bg, Flatten(q), eps)
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
	if _, _, err := searchKNN(bg, ix, Flatten(q), 0); err == nil {
		t.Error("k=0 accepted")
	}
	if _, _, err := searchKNN(bg, ix, Flatten(nil), 2); err == nil {
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
	ix, err := build(data, filepath.Join(t.TempDir(), "all.twt"), core.Options{Categories: 3, Sparse: true})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	for _, q := range [][][]float64{randomVecQuery(rng, 4, 3), {{1, 2, 3}, {1, 2, 3}}} {
		all, _, err := SeqScan(data, q, math.Inf(1), -1)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := searchKNN(bg, ix, Flatten(q), len(all)+1)
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
	ix, err := build(data, path, core.Options{Categories: 4, Sparse: true})
	if err != nil {
		t.Fatal(err)
	}
	q := randomVecQuery(rng, 5, 2)
	want, _, err := ix.Search(bg, Flatten(q), 9.5)
	if err != nil {
		t.Fatal(err)
	}
	// Persist and reload the grid, then reopen.
	var buf bytes.Buffer
	if err := ix.Scheme.Write(&buf); err != nil {
		t.Fatal(err)
	}
	ix.Close()
	grid, err := categorize.ReadGrid(&buf)
	if err != nil {
		t.Fatal(err)
	}
	re, err := core.Open(data.Dataset, grid, path, 16, -1)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	got, _, err := re.Search(bg, Flatten(q), 9.5)
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
		wide := newTable(q, w)
		var last float64
		for _, p := range s {
			last, _ = wide.AddRowPoint(p)
		}
		if want := dtw.DistancePoints(s, q); math.Abs(last-want) > 1e-9 {
			t.Fatalf("wide window %v != unconstrained %v", last, want)
		}
	}
	// Too-narrow band yields Inf.
	q := [][]float64{{0}}
	s := [][]float64{{0}, {0}, {0}, {0}}
	tab := newTable(q, 1)
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
	mustAdd(d, Sequence{ID: "a", Points: [][]float64{{1}, {2}, {3}}})
	// Build with every option combination must produce a searchable index.
	for _, opts := range []core.Options{
		{},
		{Sparse: true},
		{Window: 2},
		{MinAnswerLen: 2, Sparse: true},
		{Kind: categorize.KindEqualLength, Categories: 2},
	} {
		path := filepath.Join(t.TempDir(), fmt.Sprintf("o%v%v.twt", opts.Sparse, opts.Window))
		ix, err := build(d, path, opts)
		if err != nil {
			t.Fatalf("%+v: %v", opts, err)
		}
		if _, _, err := ix.Search(bg, []float64{2}, 1); err != nil {
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
	ix, err := build(data, filepath.Join(t.TempDir(), "sv.twt"), core.Options{Categories: 3, Sparse: true})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	q := randomVecQuery(rng, 5, 2)
	want, _, err := ix.Search(bg, Flatten(q), 9.5)
	if err != nil {
		t.Fatal(err)
	}
	var got []Match
	if _, err := ix.SearchVisit(bg, Flatten(q), 9.5, func(m Match) bool {
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
		if _, err := ix.SearchVisit(bg, Flatten(q), 9.5, func(Match) bool {
			count++
			return count < 2
		}); err != nil {
			t.Fatal(err)
		}
		if count != 2 {
			t.Fatalf("early stop delivered %d", count)
		}
	}
	if _, err := ix.SearchVisit(bg, Flatten(q), 9.5, nil); err == nil {
		t.Error("nil visitor accepted")
	}
}

// WriteBinary's bytes are pinned: the digest is of what the per-point
// binary.Write encoder this one replaced wrote for the same dataset.
func TestWriteBinaryGolden(t *testing.T) {
	d := NewDataset(3)
	mustAdd(d, Sequence{ID: "p", Points: [][]float64{{1, -2.5, math.Copysign(0, -1)}, {5e-324, math.MaxFloat64, 0}}})
	long := make([][]float64, 3000) // more coordinates than two conversion buffers
	for i := range long {
		long[i] = []float64{float64(i*i%1009) / 7, float64(i), -float64(i%13) / 3}
	}
	mustAdd(d, Sequence{ID: "long-" + strings.Repeat("x", 300), Points: long})
	mustAdd(d, Sequence{ID: "z", Points: [][]float64{{4, 2, 0}}})
	var buf bytes.Buffer
	if err := d.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	const want = "d87c408f58e24b5e23a01f9a563fdfe0c7d80fb551ecf026e1ff7129f7bd08ac"
	if sum := sha256.Sum256(buf.Bytes()); buf.Len() != 72411 || hex.EncodeToString(sum[:]) != want {
		t.Fatalf("WriteBinary wrote %d bytes with sha256 %x, want 72411 bytes with %s", buf.Len(), sum, want)
	}
}

// An id the format's 16-bit length cannot carry never reaches a file: Add
// refuses it, so no dataset holds one to be written with a wrapped length
// that no reader can follow, and the dataset writes and reads back without
// it.
func TestWriteBinaryLongID(t *testing.T) {
	d := NewDataset(2)
	mustAdd(d, Sequence{ID: "fine", Points: [][]float64{{1, 2}}})
	if _, err := d.Add(Sequence{ID: strings.Repeat("y", math.MaxUint16+1), Points: [][]float64{{2, 3}}}); err == nil {
		t.Fatalf("id of %d bytes accepted", math.MaxUint16+1)
	}
	var buf bytes.Buffer
	if err := d.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := sequence.ReadBinary(&buf)
	if err != nil || back.Len() != 1 || back.Seq(0).ID != "fine" {
		t.Fatalf("read back %v, %v; want the one sequence added", back, err)
	}
}

// Sequences with one point fewer than the reader's first allocation (1<<16
// values) holds, exactly as many, and one more come back point for point in
// every dimension, no point reaching into its neighbour's coordinates; a
// stream cut among the points of such a sequence is a wrapped
// io.ErrUnexpectedEOF.
func TestBinaryChunkBoundaries(t *testing.T) {
	for _, dim := range []int{1, 2, 7} {
		perArray := (1 << 16) / dim
		for n := perArray - 1; n <= perArray+1; n++ {
			pts := make([][]float64, n)
			for i := range pts {
				pts[i] = make([]float64, dim)
				for k := range pts[i] {
					pts[i][k] = float64(i%977) + float64(k)/8
				}
			}
			d := NewDataset(dim)
			mustAdd(d, Sequence{ID: "first", Points: pts[:1]})
			mustAdd(d, Sequence{ID: "edge", Points: pts})
			var buf bytes.Buffer
			if err := d.WriteBinary(&buf); err != nil {
				t.Fatal(err)
			}
			raw := buf.Bytes()
			got, err := sequence.ReadBinary(bytes.NewReader(raw))
			if err != nil || !reflect.DeepEqual(points(got, 1), pts) {
				t.Fatalf("dim %d, %d points: round trip differs (err = %v)", dim, n, err)
			}
			for _, p := range points(got, 1) {
				if cap(p) != dim {
					t.Fatalf("dim %d, %d points: a point has capacity %d", dim, n, cap(p))
				}
			}
			for _, cut := range []int{len(raw) - 1, len(raw) - 8*dim, len(raw) - 8*dim*2, len(raw) - 8*dim*(n-1)} {
				if _, err := sequence.ReadBinary(bytes.NewReader(raw[:cut])); !errors.Is(err, io.ErrUnexpectedEOF) {
					t.Fatalf("dim %d, %d points, stream cut at %d of %d: err = %v, want io.ErrUnexpectedEOF", dim, n, cut, len(raw), err)
				}
			}
		}
	}
}
