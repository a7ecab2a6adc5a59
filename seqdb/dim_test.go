package seqdb

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"twsearch/internal/categorize"
)

// vecSeq is a random walk of n dim-dimensional points, point-major.
func vecSeq(rng *rand.Rand, n, dim int) []float64 {
	vals := make([]float64, 0, n*dim)
	v := make([]float64, dim)
	for k := range v {
		v[k] = float64(rng.Intn(10))
	}
	for i := 0; i < n; i++ {
		for k := range v {
			v[k] += float64(rng.Intn(3) - 1)
			vals = append(vals, v[k])
		}
	}
	return vals
}

// newVectorTestDB is newTestDB for a database of dimension dim.
func newVectorTestDB(t *testing.T, nSeq, seqLen, dim int, seed int64) *DB {
	t.Helper()
	db, err := CreateDim(filepath.Join(t.TempDir(), "vdb"), dim)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < nSeq; i++ {
		if err := db.Add(fmt.Sprintf("vec-%d", i), vecSeq(rng, seqLen, dim)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Save(); err != nil {
		t.Fatal(err)
	}
	return db
}

// cut returns the points [start, end) of sequence id of db, point-major.
func cut(db *DB, id string, start, end int) []float64 {
	d := db.Dim()
	return append([]float64(nil), db.Values(id)[start*d:end*d]...)
}

// A database of dimension 2 lives the scalar one's life: indexed, it
// refuses new sequences, answers as its scan does, finds a cut of itself at
// distance 0, and answers k-NN.
func TestVectorDBLifecycle(t *testing.T) {
	db := newVectorTestDB(t, 5, 30, 2, 21)
	if db.Dim() != 2 || db.Len() != 5 {
		t.Fatalf("dim=%d len=%d", db.Dim(), db.Len())
	}
	if err := db.BuildIndex("g", IndexSpec{Categories: 5, Sparse: true}); err != nil {
		t.Fatal(err)
	}
	if err := db.Add("late", []float64{1, 2}); err == nil {
		t.Fatal("Add with live index accepted")
	}

	q := cut(db, "vec-1", 5, 12)
	got, _, err := search(db, "g", q, 6)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := seqScan(db, q, 6)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("index %d matches, scan %d", len(got), len(want))
	}
	found := false
	for _, m := range got {
		if m.SeqID == "vec-1" && m.Start == 5 && m.End == 12 && m.Distance == 0 {
			found = true
		}
	}
	if !found {
		t.Fatal("verbatim vector query not found at distance 0")
	}

	knn, _, err := searchKNN(db, "g", q, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(knn) != 3 || knn[0].Distance != 0 && knn[1].Distance != 0 && knn[2].Distance != 0 {
		t.Fatalf("kNN wrong: %+v", knn)
	}
}

func TestVectorDBPersistence(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "vdb")
	db, err := CreateDim(dir, 3)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(22))
	for i := 0; i < 4; i++ {
		if err := db.Add(fmt.Sprintf("v%d", i), vecSeq(rng, 20, 3)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Save(); err != nil {
		t.Fatal(err)
	}
	spec := IndexSpec{Categories: 4, Sparse: true, Window: 6}
	if err := db.BuildIndex("a", spec); err != nil {
		t.Fatal(err)
	}
	q := cut(db, "v0", 3, 9)
	want, _, err := search(db, "a", q, 8)
	if err != nil {
		t.Fatal(err)
	}
	db.Close()

	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Dim() != 3 || re.Len() != 4 {
		t.Fatalf("reopened dim=%d len=%d", re.Dim(), re.Len())
	}
	if !reflect.DeepEqual(re.Indexes(), []string{"a"}) {
		t.Fatalf("indexes = %v", re.Indexes())
	}
	info, err := re.Index("a")
	if err != nil {
		t.Fatal(err)
	}
	if s := info.Spec; s.Method != MethodMaxEntropy || s.Categories != 4 || !s.Sparse || s.Window != 6 || s.Encoding != EncodingV2 {
		t.Errorf("reopened spec %+v, want %+v in v2", s, spec)
	}
	got, _, err := search(re, "a", q, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("windowed vector index differs after reopen")
	}

	if err := re.DropIndex("a"); err != nil {
		t.Fatal(err)
	}
	if err := re.Add("v99", vecSeq(rng, 5, 3)); err != nil {
		t.Fatal(err)
	}
}

func TestVectorDBValidation(t *testing.T) {
	if _, err := CreateDim(filepath.Join(t.TempDir(), "z"), 0); err == nil {
		t.Error("dim 0 accepted")
	}
	dir := filepath.Join(t.TempDir(), "vdb")
	db, err := CreateDim(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := CreateDim(dir, 2); err == nil {
		t.Error("double create accepted")
	}
	if err := db.BuildIndex("x", IndexSpec{}); err == nil {
		t.Error("indexing empty vector db accepted")
	}
	if err := db.Add("a", []float64{1, 2, 3}); err == nil {
		t.Error("a point and a half accepted")
	}
	if err := db.Add("a", []float64{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	if err := db.BuildIndex("bad name", IndexSpec{}); err == nil {
		t.Error("bad index name accepted")
	}
	if err := db.BuildIndex("x", IndexSpec{}); err != nil {
		t.Fatal(err)
	}
	if err := db.BuildIndex("x", IndexSpec{}); err == nil {
		t.Error("duplicate index accepted")
	}
	if _, _, err := search(db, "nope", []float64{1, 2}, 1); !errors.Is(err, ErrNoIndex) {
		t.Errorf("unknown index: err = %v", err)
	}
	if _, _, err := searchKNN(db, "nope", []float64{1, 2}, 1); !errors.Is(err, ErrNoIndex) {
		t.Errorf("unknown index for kNN: err = %v", err)
	}
	if err := db.DropIndex("nope"); err == nil {
		t.Error("dropping unknown index accepted")
	}
	if db.Values("ghost") != nil {
		t.Error("Values of absent id not nil")
	}
	for _, q := range [][]float64{{1}, {1, 2, 3}} {
		if _, _, err := search(db, "x", q, 1); !errors.Is(err, ErrDimension) {
			t.Errorf("query of %d values: err = %v, want ErrDimension", len(q), err)
		}
		if _, _, err := seqScan(db, q, 1); !errors.Is(err, ErrDimension) {
			t.Errorf("scan query of %d values: err = %v, want ErrDimension", len(q), err)
		}
	}
	// What is defined for values only refuses points, with one error.
	m := Match{SeqID: "a", Start: 0, End: 2}
	if _, _, err := db.Align(m, []float64{1, 2}); !errors.Is(err, ErrDimension) {
		t.Errorf("Align: err = %v, want ErrDimension", err)
	}
	if _, _, err := db.SelectCategories(IndexSpec{}, []int{2}, [][]float64{{1, 2}}, 1, CostModel{Wt: 1}); !errors.Is(err, ErrDimension) {
		t.Errorf("SelectCategories: err = %v, want ErrDimension", err)
	}
	if err := db.ExportCSV(&bytes.Buffer{}); !errors.Is(err, ErrDimension) {
		t.Errorf("ExportCSV: err = %v, want ErrDimension", err)
	}
	if err := db.DropIndex("x"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.ImportCSV(strings.NewReader("b,1,2\n")); !errors.Is(err, ErrDimension) {
		t.Errorf("ImportCSV: err = %v, want ErrDimension", err)
	}
}

func TestVectorDBAddCopiesPoints(t *testing.T) {
	db := newVectorTestDB(t, 0, 0, 2, 23)
	pts := []float64{1, 2, 3, 4}
	if err := db.Add("a", pts); err != nil {
		t.Fatal(err)
	}
	pts[0] = 99
	if got := db.Values("a"); !reflect.DeepEqual(got, []float64{1, 2, 3, 4}) {
		t.Fatalf("stored points %v: Add aliased the caller's", got)
	}
}

// TestVectorEncodingsReopen: an index of dimension 2 built in v1 and one
// built by default, in v2, reopen on the pool and the mmap backends, each
// still in its own encoding, and answer range and k-NN queries byte for
// byte as they did when built and as each other.
func TestVectorEncodingsReopen(t *testing.T) {
	db := newVectorTestDB(t, 12, 60, 2, 31)
	spec := IndexSpec{Categories: 5, Window: 3}
	old := spec
	old.Encoding = EncodingV1
	if err := db.BuildIndex("old", old); err != nil {
		t.Fatal(err)
	}
	if err := db.BuildIndex("new", spec); err != nil {
		t.Fatal(err)
	}
	var queries [][]float64
	for i := 0; i < 4; i++ {
		queries = append(queries, cut(db, fmt.Sprintf("vec-%d", 3*i), 5*i, 5*i+8))
	}
	// answers renders every answer of an index, distances by their bits.
	answers := func(db *DB, name string) string {
		t.Helper()
		var sb strings.Builder
		for _, q := range queries {
			ms, _, err := search(db, name, q, 7)
			if err != nil {
				t.Fatal(err)
			}
			kms, _, err := searchKNN(db, name, q, 5)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range append(ms, kms...) {
				fmt.Fprintf(&sb, "%s %d %d %d %x\n", m.SeqID, m.Seq, m.Start, m.End, math.Float64bits(m.Distance))
			}
			sb.WriteString("--\n")
		}
		return sb.String()
	}
	want := answers(db, "old")
	if strings.Count(want, "\n") <= 2*len(queries) {
		t.Fatal("the queries found nothing to compare")
	}
	if got := answers(db, "new"); got != want {
		t.Fatalf("v2 index answers differ from v1's:\n%s\nwant\n%s", got, want)
	}
	dir := db.Dir()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	for _, backend := range []Backend{BackendPool, BackendMmap} {
		re, err := OpenWith(dir, OpenOptions{Backend: backend})
		if err != nil {
			t.Fatal(err)
		}
		for name, enc := range map[string]Encoding{"old": EncodingV1, "new": EncodingV2} {
			info, err := re.Index(name)
			if err != nil {
				t.Fatal(err)
			}
			if info.Spec.Encoding != enc {
				t.Errorf("%s: index %q reopened as %s, want %s", backend, name, info.Spec.Encoding, enc)
			}
			if got := answers(re, name); got != want {
				t.Errorf("%s: index %q answers differ after reopening:\n%s\nwant\n%s", backend, name, got, want)
			}
		}
		if err := re.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestConcurrentVectorSearches is TestConcurrentSearches over one handle of
// dimension 2: eight goroutines run range, streamed and k-NN searches on it
// at once, and every answer is byte-identical to a serial run's.
func TestConcurrentVectorSearches(t *testing.T) {
	db := newVectorTestDB(t, 8, 60, 2, 41)
	if err := db.BuildIndex("c", IndexSpec{Categories: 5, Sparse: true, Window: 3}); err != nil {
		t.Fatal(err)
	}
	var queries [][]float64
	for i := 0; i < 8; i++ {
		queries = append(queries, cut(db, fmt.Sprintf("vec-%d", i), 3*i, 3*i+7))
	}
	const eps, k = 6.0, 4
	render := func(ms []Match) string { return fmt.Sprintf("%v", ms) }
	want := make([]string, len(queries))
	for i, q := range queries {
		ms, _, err := search(db, "c", q, eps)
		if err != nil {
			t.Fatal(err)
		}
		kms, _, err := searchKNN(db, "c", q, k)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = render(ms) + render(kms)
	}
	var wg sync.WaitGroup
	errs := make(chan error, len(queries))
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < 3; r++ {
				i := (g + r) % len(queries)
				ms, _, err := search(db, "c", queries[i], eps)
				if err != nil {
					errs <- err
					return
				}
				var streamed []Match
				if _, err := searchVisit(db, "c", queries[i], eps, func(m Match) bool {
					streamed = append(streamed, m)
					return true
				}); err != nil {
					errs <- err
					return
				}
				slices.SortFunc(streamed, comparePosition)
				kms, _, err := searchKNN(db, "c", queries[i], k)
				if err != nil {
					errs <- err
					return
				}
				if got := render(ms) + render(kms); got != want[i] || render(streamed) != render(ms) {
					errs <- fmt.Errorf("goroutine %d, query %d: answers differ from the serial run's", g, i)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// comparePosition orders matches by (sequence, start, end).
func comparePosition(a, b Match) int {
	if a.Seq != b.Seq {
		return a.Seq - b.Seq
	}
	if a.Start != b.Start {
		return a.Start - b.Start
	}
	return a.End - b.End
}

// An index whose record holds a scheme of another dimension than its
// dataset — a 3-D grid's record copied over a 2-D index's — is refused at
// open with ErrDimension, the file named, not encoded until it panics.
func TestOpenRefusesSchemeOfOtherDimension(t *testing.T) {
	two := newVectorTestDB(t, 4, 30, 2, 51)
	three := newVectorTestDB(t, 4, 30, 3, 52)
	for _, db := range []*DB{two, three} {
		if err := db.BuildIndex("ix", IndexSpec{Categories: 3}); err != nil {
			t.Fatal(err)
		}
	}
	grid, err := os.ReadFile(filepath.Join(three.Dir(), "idx-ix.cat"))
	if err != nil {
		t.Fatal(err)
	}
	target := filepath.Join(two.Dir(), "idx-ix.cat")
	if err := os.WriteFile(target, grid, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(two.Dir()); !errors.Is(err, ErrDimension) || !strings.Contains(err.Error(), target) {
		t.Fatalf("open with a 3-D grid over 2-D data: err = %v, want ErrDimension naming %s", err, target)
	}
}

// An index record whose scheme declares zero categories — a TWCATSC1
// scheme over a database of dimension 1, a TWGRID01 grid of two such
// schemes over one of dimension 2 — is refused at open. Accepted, the first search of the one
// indexed a category table of length 0, and the open of the other indexed
// an empty cell table while encoding, both with a panic.
func TestOpenRefusesSchemeOfNoCategories(t *testing.T) {
	scheme := append([]byte("TWCATSC1"), 0, 0, 0, 0, 0) // equal-length, count 0
	grid := append([]byte("TWGRID01"), 2, 0)            // dimension 2
	grid = append(append(append(grid, scheme...), scheme...), 0, 0, 0, 0)
	// The record's header: window -1, the default pool.
	head := append([]byte("TWINDEX1"), 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0, 0, 0, 0, 0)
	for dim, file := range map[int][]byte{1: scheme, 2: grid} {
		db := newVectorTestDB(t, 4, 30, dim, 81)
		if err := db.BuildIndex("g", IndexSpec{Categories: 3}); err != nil {
			t.Fatal(err)
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(db.Dir(), "idx-g.cat"), append(append([]byte(nil), head...), file...), 0o644); err != nil {
			t.Fatal(err)
		}
		re, err := Open(db.Dir())
		if err == nil {
			re.Close()
		}
		if !errors.Is(err, categorize.ErrNoCategories) {
			t.Errorf("d=%d: open of a scheme of no categories: err = %v, want ErrNoCategories", dim, err)
		}
	}
}

// TestBuildIndexFailureRemovesItsFiles: a build whose record cannot be
// written fails, removes the tree it wrote and nothing else, and succeeds
// when repeated once the cause is gone — in both dimensions.
func TestBuildIndexFailureRemovesItsFiles(t *testing.T) {
	const blocked = "idx-ix.cat"
	for _, dim := range []int{1, 2} {
		db := newVectorTestDB(t, 4, 30, dim, 61)
		// A directory where a file is to be written cannot be created.
		block := filepath.Join(db.Dir(), blocked)
		if err := os.Mkdir(block, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := db.BuildIndex("ix", IndexSpec{Categories: 3}); err == nil {
			t.Fatalf("d=%d, %s blocked: build succeeded", dim, blocked)
		}
		entries, err := os.ReadDir(db.Dir())
		if err != nil {
			t.Fatal(err)
		}
		var left []string
		for _, e := range entries {
			left = append(left, e.Name())
		}
		if want := []string{"data.twdb", blocked}; !reflect.DeepEqual(left, want) {
			t.Errorf("d=%d, %s blocked: failed build left %v, want %v", dim, blocked, left, want)
		}
		if err := os.Remove(block); err != nil {
			t.Fatal(err)
		}
		if err := db.BuildIndex("ix", IndexSpec{Categories: 3}); err != nil {
			t.Fatalf("d=%d, %s unblocked: retry: %v", dim, blocked, err)
		}
		if _, _, err := search(db, "ix", cut(db, "vec-0", 0, 4), 1); err != nil {
			t.Fatalf("d=%d: search after retry: %v", dim, err)
		}
	}
}

// A directory in an old layout — a vectors.twvdb dataset, vidx-* index
// files, or the idx-*.meta of an index of three files — is refused with
// ErrOldLayout, which names the file.
func TestOpenRefusesOldVectorLayout(t *testing.T) {
	for _, file := range []string{"vectors.twvdb", "vidx-g.twt", "vidx-g.grid", "idx-g.meta"} {
		db := newVectorTestDB(t, 2, 10, 2, 71)
		path := filepath.Join(db.Dir(), file)
		if err := os.WriteFile(path, []byte("old"), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(db.Dir()); !errors.Is(err, ErrOldLayout) || !strings.Contains(err.Error(), path) {
			t.Errorf("%s: err = %v, want ErrOldLayout naming the file", file, err)
		}
	}
}

// The files of a database of dimension 2 are pinned: its dataset file holds
// the bytes vector databases were written in before they became databases
// of dimension d, under the name every database uses (the digest was
// captured from that layout's file), its index record holds, after its
// 24-byte header, the bytes of that layout's grid file, and its tree file
// is the same tree in today's compact record (TestFormatStability's v2
// layout).
func TestVectorFilesPinned(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "vdb")
	db, err := CreateDim(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for i := 0; i < 6; i++ {
		var vals []float64
		for j := 0; j < 25; j++ {
			vals = append(vals, float64((i*7+j*j)%11)/2, float64((i+3*j)%5)-1.5)
		}
		if err := db.Add(fmt.Sprintf("w%d", i), vals); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Save(); err != nil {
		t.Fatal(err)
	}
	if err := db.BuildIndex("g", IndexSpec{Categories: 3, Window: 2}); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		file string
		from int // the digest is of the bytes from this offset on
		want string
	}{
		{"data.twdb", 0, "8ba4b26496fa1af3202dc3c348fd40431dd8103d19269c18536c07c667c8a3c9"},
		{"idx-g.twt", 0, "3af1fefe9c87867cf4d02ed039b5ec9b7754a422f54c7ba7b9c1f99bcdce19c7"},
		{"idx-g.cat", 0, "76d3af778a273deb3aa3a5fb6158d96d7e471281f021ae7b17cbb04f2fadeba3"},
		{"idx-g.cat", 24, "514b9274487b74e005160d5e33c9bcb8f144a3ff89e88ddfbf49cd4812624c92"},
	} {
		b, err := os.ReadFile(filepath.Join(dir, tc.file))
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(b[tc.from:])); got != tc.want {
			t.Errorf("%s from byte %d: sha256 %s, want %s", tc.file, tc.from, got, tc.want)
		}
	}
}
