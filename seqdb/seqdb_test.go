package seqdb

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

func testValues(rng *rand.Rand, n int) []float64 {
	vals := make([]float64, n)
	v := float64(rng.Intn(50))
	for i := range vals {
		v += float64(rng.Intn(5) - 2)
		vals[i] = v
	}
	return vals
}

// search, searchVisit, searchKNN and seqScan call a database the way most
// tests here want: serial, under a context that never fires.
func search(db *DB, indexName string, q []float64, eps float64) ([]Match, SearchStats, error) {
	return db.SearchWith(context.Background(), indexName, q, eps, SearchOptions{})
}

func searchVisit(db *DB, indexName string, q []float64, eps float64, fn func(Match) bool) (SearchStats, error) {
	return db.SearchVisitWith(context.Background(), indexName, q, eps, fn, SearchOptions{})
}

func searchKNN(db *DB, indexName string, q []float64, k int) ([]Match, SearchStats, error) {
	return db.SearchKNNWith(context.Background(), indexName, q, k, SearchOptions{})
}

func seqScan(db *DB, q []float64, eps float64) ([]Match, SearchStats, error) {
	return db.SeqScanCtx(context.Background(), q, eps)
}

func newTestDB(t *testing.T, nSeq, seqLen int, seed int64) *DB {
	t.Helper()
	db, err := Create(filepath.Join(t.TempDir(), "db"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < nSeq; i++ {
		if err := db.Add(fmt.Sprintf("seq-%d", i), testValues(rng, seqLen)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Save(); err != nil {
		t.Fatal(err)
	}
	return db
}

func TestCreateRejectsExisting(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db")
	db, err := Create(dir)
	if err != nil {
		t.Fatal(err)
	}
	db.Close()
	if _, err := Create(dir); err == nil {
		t.Fatal("second Create accepted")
	}
}

func TestAddAndQueryLifecycle(t *testing.T) {
	db := newTestDB(t, 5, 40, 1)
	if db.Len() != 5 {
		t.Fatalf("Len = %d", db.Len())
	}
	ids := db.SequenceIDs()
	if len(ids) != 5 || ids[0] != "seq-0" {
		t.Fatalf("ids = %v", ids)
	}
	if db.Values("seq-2") == nil {
		t.Fatal("Values(seq-2) nil")
	}
	if db.Values("nope") != nil {
		t.Fatal("Values of absent id not nil")
	}
	st := db.Stats()
	if st.Sequences != 5 || st.TotalElements != 200 {
		t.Fatalf("stats = %+v", st)
	}

	if err := db.BuildIndex("main", IndexSpec{Method: MethodMaxEntropy, Categories: 8, Sparse: true}); err != nil {
		t.Fatal(err)
	}
	if err := db.Add("late", []float64{1, 2}); err == nil {
		t.Fatal("Add with live index accepted")
	}
	info, err := db.Index("main")
	if err != nil {
		t.Fatal(err)
	}
	if info.SizeBytes <= 0 || info.Leaves == 0 {
		t.Fatalf("info = %+v", info)
	}

	q := append([]float64(nil), db.Values("seq-1")[5:15]...)
	idxMatches, idxStats, err := search(db, "main", q, 10)
	if err != nil {
		t.Fatal(err)
	}
	scanMatches, _, err := seqScan(db, q, 10)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(idxMatches, scanMatches) {
		t.Fatalf("index %d matches, scan %d", len(idxMatches), len(scanMatches))
	}
	if len(idxMatches) == 0 {
		t.Fatal("query cut from the data found nothing")
	}
	// The query itself must be among the answers at distance 0.
	found := false
	for _, m := range idxMatches {
		if m.SeqID == "seq-1" && m.Start == 5 && m.End == 15 && m.Distance == 0 {
			found = true
		}
		if m.Distance > 10 {
			t.Fatalf("match above threshold: %+v", m)
		}
	}
	if !found {
		t.Fatal("verbatim query subsequence not found at distance 0")
	}
	if idxStats.Answers != uint64(len(idxMatches)) {
		t.Fatal("stats.Answers mismatch")
	}
}

func TestPersistenceRoundTrip(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db")
	db, err := Create(dir)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 4; i++ {
		if err := db.Add(fmt.Sprintf("s%d", i), testValues(rng, 30)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Save(); err != nil {
		t.Fatal(err)
	}
	if err := db.BuildIndex("a", IndexSpec{Method: MethodEqualLength, Categories: 6}); err != nil {
		t.Fatal(err)
	}
	if err := db.BuildIndex("b", IndexSpec{Method: MethodMaxEntropy, Categories: 4, Sparse: true, Window: 8}); err != nil {
		t.Fatal(err)
	}
	q := append([]float64(nil), db.Values("s0")[3:12]...)
	wantA, _, err := search(db, "a", q, 7)
	if err != nil {
		t.Fatal(err)
	}
	wantB, _, err := search(db, "b", q, 7)
	if err != nil {
		t.Fatal(err)
	}
	db.Close()

	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	names := re.Indexes()
	sort.Strings(names)
	if !reflect.DeepEqual(names, []string{"a", "b"}) {
		t.Fatalf("indexes after reopen = %v", names)
	}
	gotA, _, err := search(re, "a", q, 7)
	if err != nil {
		t.Fatal(err)
	}
	gotB, _, err := search(re, "b", q, 7)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotA, wantA) {
		t.Fatal("index a differs after reopen")
	}
	if !reflect.DeepEqual(gotB, wantB) {
		t.Fatal("index b (sparse, windowed) differs after reopen")
	}
	infoB, err := re.Index("b")
	if err != nil {
		t.Fatal(err)
	}
	if !infoB.Spec.Sparse || infoB.Spec.Window != 8 {
		t.Fatalf("spec b after reopen = %+v", infoB.Spec)
	}
}

func TestDropIndex(t *testing.T) {
	db := newTestDB(t, 3, 20, 3)
	if err := db.BuildIndex("tmp", IndexSpec{Categories: 4}); err != nil {
		t.Fatal(err)
	}
	if err := db.DropIndex("tmp"); err != nil {
		t.Fatal(err)
	}
	if len(db.Indexes()) != 0 {
		t.Fatal("index still listed")
	}
	if err := db.DropIndex("tmp"); err == nil {
		t.Fatal("double drop accepted")
	}
	// Dropping enables Add again, and the name is reusable.
	if err := db.Add("later", []float64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if err := db.BuildIndex("tmp", IndexSpec{Categories: 4}); err != nil {
		t.Fatal(err)
	}
}

func TestBuildIndexValidation(t *testing.T) {
	db := newTestDB(t, 2, 15, 4)
	if err := db.BuildIndex("bad name", IndexSpec{}); err == nil {
		t.Error("space in name accepted")
	}
	if err := db.BuildIndex("", IndexSpec{}); err == nil {
		t.Error("empty name accepted")
	}
	if err := db.BuildIndex("x", IndexSpec{}); err != nil {
		t.Fatal(err)
	}
	if err := db.BuildIndex("x", IndexSpec{}); err == nil {
		t.Error("duplicate name accepted")
	}
	empty, err := Create(filepath.Join(t.TempDir(), "empty"))
	if err != nil {
		t.Fatal(err)
	}
	defer empty.Close()
	if err := empty.BuildIndex("x", IndexSpec{}); err == nil {
		t.Error("indexing empty db accepted")
	}
}

func TestSearchErrors(t *testing.T) {
	db := newTestDB(t, 2, 15, 5)
	if _, _, err := search(db, "nope", []float64{1}, 5); err == nil {
		t.Error("unknown index accepted")
	}
	if err := db.BuildIndex("x", IndexSpec{}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := search(db, "x", nil, 5); err == nil {
		t.Error("empty query accepted")
	}
	checkNonFiniteRefused(t, db, "x")
}

// checkNonFiniteRefused holds a database to refusing a NaN threshold and a
// query with a NaN or infinite value on every search path — range, visit,
// k-NN and scan — instead of running them to an empty answer. On a sharded
// database the refusal is the request's, not a shard outage.
func checkNonFiniteRefused(t *testing.T, db *DB, index string) {
	t.Helper()
	refused := func(what string, err error) {
		t.Helper()
		var pe *PartialError
		if err == nil {
			t.Errorf("%s accepted", what)
		} else if errors.As(err, &pe) {
			t.Errorf("%s: %v, want a refusal before any shard is asked", what, err)
		}
	}
	q := []float64{1, 2, 3}
	_, _, err := search(db, index, q, math.NaN())
	refused("NaN eps", err)
	_, err = searchVisit(db, index, q, math.NaN(), func(Match) bool { return true })
	refused("NaN eps visit", err)
	_, _, err = seqScan(db, q, math.NaN())
	refused("NaN eps scan", err)
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		bad := []float64{1, v, 3}
		_, _, err := search(db, index, bad, 5)
		refused(fmt.Sprintf("query value %v", v), err)
		_, _, err = searchKNN(db, index, bad, 2)
		refused(fmt.Sprintf("k-NN query value %v", v), err)
		_, _, err = seqScan(db, bad, 5)
		refused(fmt.Sprintf("scan query value %v", v), err)
	}
}

// All four methods must agree with SeqScan through the public API.
func TestAllMethodsAgree(t *testing.T) {
	db := newTestDB(t, 4, 30, 6)
	rng := rand.New(rand.NewSource(7))
	q := testValues(rng, 8)
	want, _, err := seqScan(db, q, 9)
	if err != nil {
		t.Fatal(err)
	}
	for i, m := range []Method{MethodExact, MethodEqualLength, MethodMaxEntropy, MethodKMeans} {
		name := fmt.Sprintf("m%d", i)
		if err := db.BuildIndex(name, IndexSpec{Method: m, Categories: 6, Sparse: i%2 == 0}); err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		got, _, err := search(db, name, q, 9)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("%s: %d matches, scan %d", m, len(got), len(want))
		}
		for j := range got {
			if got[j].SeqID != want[j].SeqID || got[j].Start != want[j].Start ||
				got[j].End != want[j].End || math.Abs(got[j].Distance-want[j].Distance) > 1e-9 {
				t.Fatalf("%s: match %d differs", m, j)
			}
		}
	}
}

func TestAddCopiesValues(t *testing.T) {
	db := newTestDB(t, 0, 0, 8)
	vals := []float64{1, 2, 3}
	if err := db.Add("a", vals); err != nil {
		t.Fatal(err)
	}
	vals[0] = 99
	if db.Values("a")[0] != 1 {
		t.Fatal("Add aliased the caller's slice")
	}
}

func TestSearchKNNPublic(t *testing.T) {
	db := newTestDB(t, 5, 40, 9)
	if err := db.BuildIndex("k", IndexSpec{Method: MethodMaxEntropy, Categories: 8, Sparse: true}); err != nil {
		t.Fatal(err)
	}
	q := append([]float64(nil), db.Values("seq-2")[10:20]...)
	matches, _, err := searchKNN(db, "k", q, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != 5 {
		t.Fatalf("got %d matches", len(matches))
	}
	// The verbatim subsequence must be among the 5 nearest (distance 0).
	found := false
	for _, m := range matches {
		if m.SeqID == "seq-2" && m.Start == 10 && m.End == 20 && m.Distance == 0 {
			found = true
		}
	}
	if !found {
		t.Fatal("verbatim subsequence missing from kNN result")
	}
	if _, _, err := searchKNN(db, "nope", q, 3); err == nil {
		t.Error("unknown index accepted")
	}
}

func TestMinAnswerLenPublic(t *testing.T) {
	db := newTestDB(t, 4, 30, 12)
	if err := db.BuildIndex("short", IndexSpec{Method: MethodMaxEntropy, Categories: 6, MinAnswerLen: 8}); err != nil {
		t.Fatal(err)
	}
	info, err := db.Index("short")
	if err != nil {
		t.Fatal(err)
	}
	if info.Spec.MinAnswerLen != 8 {
		t.Fatalf("spec MinAnswerLen = %d", info.Spec.MinAnswerLen)
	}
	q := append([]float64(nil), db.Values("seq-0")[2:12]...)
	matches, _, err := search(db, "short", q, 15)
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) == 0 {
		t.Fatal("no matches")
	}
	for _, m := range matches {
		if m.End-m.Start < 8 {
			t.Fatalf("answer shorter than floor: %+v", m)
		}
	}
	// Scan answers of >= 8 elements must all be present.
	scan, _, err := seqScan(db, q, 15)
	if err != nil {
		t.Fatal(err)
	}
	long := scan[:0:0]
	for _, m := range scan {
		if m.End-m.Start >= 8 {
			long = append(long, m)
		}
	}
	if !reflect.DeepEqual(matches, long) {
		t.Fatalf("length-filtered answers differ: %d vs %d", len(matches), len(long))
	}
}

func TestAlignPublic(t *testing.T) {
	db := newTestDB(t, 0, 0, 13)
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	must(db.Add("s", []float64{20, 20, 21, 21, 20, 20, 23, 23}))
	must(db.Save())
	must(db.BuildIndex("a", IndexSpec{Method: MethodExact}))
	q := []float64{20, 21, 20, 23}
	matches, _, err := search(db, "a", q, 0)
	if err != nil {
		t.Fatal(err)
	}
	var whole *Match
	for i := range matches {
		if matches[i].Start == 0 && matches[i].End == 8 {
			whole = &matches[i]
		}
	}
	if whole == nil {
		t.Fatal("whole-sequence match missing")
	}
	dist, steps, err := db.Align(*whole, q)
	if err != nil {
		t.Fatal(err)
	}
	if dist != 0 {
		t.Fatalf("align distance = %v", dist)
	}
	if steps[0].QueryIndex != 0 || steps[0].SeqIndex != 0 {
		t.Fatalf("path start = %+v", steps[0])
	}
	last := steps[len(steps)-1]
	if last.QueryIndex != len(q)-1 || last.SeqIndex != 7 {
		t.Fatalf("path end = %+v", last)
	}
	// Every step pairs equal values in a zero-distance alignment.
	vals := db.Values("s")
	for _, st := range steps {
		if vals[st.SeqIndex] != q[st.QueryIndex] {
			t.Fatalf("step %+v pairs unequal values", st)
		}
	}
	if _, _, err := db.Align(Match{SeqID: "nope", End: 1}, q); err == nil {
		t.Error("unknown sequence accepted")
	}
	if _, _, err := db.Align(Match{SeqID: "s", Start: 5, End: 3}, q); err == nil {
		t.Error("inverted range accepted")
	}
	if _, _, err := db.Align(*whole, nil); err == nil {
		t.Error("empty query accepted")
	}
}

func TestSelectCategoriesPublic(t *testing.T) {
	db := newTestDB(t, 6, 40, 14)
	rng := rand.New(rand.NewSource(15))
	queries := [][]float64{testValues(rng, 8), testValues(rng, 6)}
	best, measures, err := db.SelectCategories(
		IndexSpec{Method: MethodMaxEntropy, Sparse: true},
		[]int{4, 16, 64}, queries, 10, CostModel{Wt: 0, Ws: 1})
	if err != nil {
		t.Fatal(err)
	}
	if best != 4 {
		t.Fatalf("space-weighted best = %d, want 4", best)
	}
	if len(measures) != 3 {
		t.Fatalf("measures = %d", len(measures))
	}
	// No trial files left behind.
	if err := db.BuildIndex("after", IndexSpec{Categories: 4}); err != nil {
		t.Fatalf("db unusable after tuning: %v", err)
	}
}

func TestExportImportCSV(t *testing.T) {
	db := newTestDB(t, 4, 20, 31)
	var buf bytes.Buffer
	if err := db.ExportCSV(&buf); err != nil {
		t.Fatal(err)
	}
	other, err := Create(filepath.Join(t.TempDir(), "copy"))
	if err != nil {
		t.Fatal(err)
	}
	defer other.Close()
	n, err := other.ImportCSV(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if n != 4 || other.Len() != 4 {
		t.Fatalf("imported %d, len %d", n, other.Len())
	}
	if !reflect.DeepEqual(other.Values("seq-2"), db.Values("seq-2")) {
		t.Fatal("values differ after export/import")
	}
	// Duplicate ids rejected atomically.
	if _, err := other.ImportCSV(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("duplicate import accepted")
	}
	if other.Len() != 4 {
		t.Fatal("failed import mutated the dataset")
	}
	// Imports blocked while indexed.
	if err := other.BuildIndex("x", IndexSpec{Categories: 4}); err != nil {
		t.Fatal(err)
	}
	if _, err := other.ImportCSV(strings.NewReader("zz,1,2\n")); err == nil {
		t.Fatal("import with live index accepted")
	}
}

func TestOpenMissingDirectory(t *testing.T) {
	if _, err := Open(filepath.Join(t.TempDir(), "ghost")); err == nil {
		t.Fatal("missing database opened")
	}
}

func TestOpenCorruptedIndexFiles(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db")
	db, err := Create(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Add("a", []float64{1, 2, 3, 4, 5}); err != nil {
		t.Fatal(err)
	}
	if err := db.Save(); err != nil {
		t.Fatal(err)
	}
	if err := db.BuildIndex("x", IndexSpec{Categories: 3}); err != nil {
		t.Fatal(err)
	}
	db.Close()
	// Corrupt the index record: Open must fail cleanly, not panic.
	if err := os.WriteFile(filepath.Join(dir, "idx-x.cat"), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err == nil {
		t.Fatal("corrupted scheme accepted")
	}
	// Remove the stray index files: Open succeeds without the index.
	os.Remove(filepath.Join(dir, "idx-x.cat"))
	os.Remove(filepath.Join(dir, "idx-x.twt"))
	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if len(re.Indexes()) != 0 {
		t.Fatal("phantom index listed")
	}
}

func TestDirAccessor(t *testing.T) {
	db := newTestDB(t, 1, 5, 99)
	if db.Dir() == "" {
		t.Fatal("empty Dir")
	}
}

func TestSearchVisitPublic(t *testing.T) {
	db := newTestDB(t, 4, 30, 51)
	if err := db.BuildIndex("v", IndexSpec{Categories: 8, Sparse: true}); err != nil {
		t.Fatal(err)
	}
	q := append([]float64(nil), db.Values("seq-1")[5:13]...)
	want, _, err := search(db, "v", q, 9)
	if err != nil {
		t.Fatal(err)
	}
	var got []Match
	if _, err := searchVisit(db, "v", q, 9, func(m Match) bool {
		got = append(got, m)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("streamed %d, Search %d", len(got), len(want))
	}
	if _, err := searchVisit(db, "nope", q, 9, func(Match) bool { return true }); err == nil {
		t.Error("unknown index accepted")
	}
	if _, err := searchVisit(db, "v", q, 9, nil); err == nil {
		t.Error("nil visitor accepted")
	}
}

// TestExactVisitOrder: an exact index, dense or sparse, finds its starts
// in DFS order, yet SearchVisitWith streams their answers in the
// (sequence, start, end) order SearchWith returns, element for element.
func TestExactVisitOrder(t *testing.T) {
	db := newTestDB(t, 6, 40, 52)
	for _, sparse := range []bool{false, true} {
		name := fmt.Sprintf("exact-%v", sparse)
		if err := db.BuildIndex(name, IndexSpec{Method: MethodExact, Sparse: sparse}); err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(53))
		for qi := 0; qi < 6; qi++ {
			q := testValues(rng, 3+qi)
			want, _, err := search(db, name, q, 8)
			if err != nil {
				t.Fatal(err)
			}
			var got []Match
			if _, err := searchVisit(db, name, q, 8, func(m Match) bool {
				got = append(got, m)
				return true
			}); err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
				t.Errorf("%s q%d: streamed %d answers, not the %d SearchWith returns in its order", name, qi, len(got), len(want))
			}
		}
	}
}
