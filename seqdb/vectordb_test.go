package seqdb

import (
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func vecSeq(rng *rand.Rand, n, dim int) [][]float64 {
	points := make([][]float64, n)
	v := make([]float64, dim)
	for k := range v {
		v[k] = float64(rng.Intn(10))
	}
	for i := range points {
		p := make([]float64, dim)
		for k := range p {
			v[k] += float64(rng.Intn(3) - 1)
			p[k] = v[k]
		}
		points[i] = p
	}
	return points
}

func newVectorTestDB(t *testing.T, nSeq, seqLen, dim int, seed int64) *VectorDB {
	t.Helper()
	db, err := CreateVector(filepath.Join(t.TempDir(), "vdb"), dim)
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

func TestVectorDBLifecycle(t *testing.T) {
	db := newVectorTestDB(t, 5, 30, 2, 21)
	if db.Dim() != 2 || db.Len() != 5 {
		t.Fatalf("dim=%d len=%d", db.Dim(), db.Len())
	}
	if err := db.BuildIndex("g", VectorIndexSpec{CatsPerDim: 5, Sparse: true}); err != nil {
		t.Fatal(err)
	}
	if err := db.Add("late", [][]float64{{1, 2}}); err == nil {
		t.Fatal("Add with live index accepted")
	}

	q := append([][]float64{}, db.Points("vec-1")[5:12]...)
	got, err := db.Search("g", q, 6)
	if err != nil {
		t.Fatal(err)
	}
	want, err := db.SeqScan(q, 6)
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

	knn, err := db.SearchKNN("g", q, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(knn) != 3 || knn[0].Distance != 0 && knn[1].Distance != 0 && knn[2].Distance != 0 {
		t.Fatalf("kNN wrong: %+v", knn)
	}
}

func TestVectorDBPersistence(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "vdb")
	db, err := CreateVector(dir, 3)
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
	if err := db.BuildIndex("a", VectorIndexSpec{CatsPerDim: 4, Sparse: true, Window: 6}); err != nil {
		t.Fatal(err)
	}
	q := append([][]float64{}, db.Points("v0")[3:9]...)
	want, err := db.Search("a", q, 8)
	if err != nil {
		t.Fatal(err)
	}
	db.Close()

	re, err := OpenVector(dir)
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
	got, err := re.Search("a", q, 8)
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
	if _, err := CreateVector(filepath.Join(t.TempDir(), "z"), 0); err == nil {
		t.Error("dim 0 accepted")
	}
	dir := filepath.Join(t.TempDir(), "vdb")
	db, err := CreateVector(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := CreateVector(dir, 2); err == nil {
		t.Error("double create accepted")
	}
	if err := db.BuildIndex("x", VectorIndexSpec{}); err == nil {
		t.Error("indexing empty vector db accepted")
	}
	if err := db.Add("a", [][]float64{{1}}); err == nil {
		t.Error("wrong-dim points accepted")
	}
	if err := db.Add("a", [][]float64{{1, 2}, {3, 4}}); err != nil {
		t.Fatal(err)
	}
	if err := db.BuildIndex("bad name", VectorIndexSpec{}); err == nil {
		t.Error("bad index name accepted")
	}
	if err := db.BuildIndex("x", VectorIndexSpec{}); err != nil {
		t.Fatal(err)
	}
	if err := db.BuildIndex("x", VectorIndexSpec{}); err == nil {
		t.Error("duplicate index accepted")
	}
	if _, err := db.Search("nope", [][]float64{{1, 2}}, 1); err == nil {
		t.Error("unknown index accepted")
	}
	if _, err := db.SearchKNN("nope", [][]float64{{1, 2}}, 1); err == nil {
		t.Error("unknown index accepted for kNN")
	}
	if err := db.DropIndex("nope"); err == nil {
		t.Error("dropping unknown index accepted")
	}
	if db.Points("ghost") != nil {
		t.Error("Points of absent id not nil")
	}
}

func TestVectorDBAddCopiesPoints(t *testing.T) {
	db := newVectorTestDB(t, 0, 0, 2, 23)
	pts := [][]float64{{1, 2}, {3, 4}}
	if err := db.Add("a", pts); err != nil {
		t.Fatal(err)
	}
	pts[0][0] = 99
	if db.Points("a")[0][0] != 1 {
		t.Fatal("Add aliased the caller's points")
	}
	// The copies share one array; none may reach into the next.
	if got := db.Points("a"); cap(got[0]) != 2 || got[1][0] != 3 || got[1][1] != 4 {
		t.Fatalf("stored points %v, the first with capacity %d", got, cap(got[0]))
	}
}

// TestVectorEncodingsReopen: a vector index built in v1 — what every vector
// index was built in before v2 became the default — and one built by
// default, in v2, reopen through OpenVector on the pool and the mmap
// backends, each still in its own encoding, and answer range and k-NN
// queries byte for byte as they did when built and as each other.
func TestVectorEncodingsReopen(t *testing.T) {
	db := newVectorTestDB(t, 12, 60, 2, 31)
	spec := VectorIndexSpec{CatsPerDim: 5, Window: 3}
	if err := db.buildIndex("old", spec, EncodingV1); err != nil {
		t.Fatal(err)
	}
	if err := db.BuildIndex("new", spec); err != nil {
		t.Fatal(err)
	}
	var queries [][][]float64
	for i := 0; i < 4; i++ {
		pts := db.Points(fmt.Sprintf("vec-%d", 3*i))
		queries = append(queries, pts[5*i:5*i+8])
	}
	// answers renders every answer of an index, distances by their bits.
	answers := func(db *VectorDB, name string) string {
		t.Helper()
		var sb strings.Builder
		for _, q := range queries {
			ms, err := db.Search(name, q, 7)
			if err != nil {
				t.Fatal(err)
			}
			kms, err := db.SearchKNN(name, q, 5)
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
	dir := db.dir
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	reopen := map[Backend]func() (*VectorDB, error){
		BackendPool: func() (*VectorDB, error) { return OpenVector(dir) },
		BackendMmap: func() (*VectorDB, error) { return openVector(dir, BackendMmap) },
	}
	for backend, open := range reopen {
		re, err := open()
		if err != nil {
			t.Fatal(err)
		}
		for name, enc := range map[string]Encoding{"old": EncodingV1, "new": EncodingV2} {
			if got := re.indexes[name].ix.Tree.Encoding(); got != enc {
				t.Errorf("%s: index %q reopened as %s, want %s", backend, name, got, enc)
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
