package seqdb

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"twsearch/internal/disktree"
	"twsearch/internal/storage"
)

// buildBackendDB creates a small database with one index per encoding so the
// backend tests can cross every (encoding, backend) pair.
func buildBackendDB(t *testing.T) string {
	t.Helper()
	db := newTestDB(t, 8, 60, 42)
	for _, enc := range []Encoding{EncodingV1, EncodingV2} {
		name := fmt.Sprintf("ix-%s", enc)
		spec := IndexSpec{Method: MethodMaxEntropy, Categories: 8, Sparse: true, Encoding: enc}
		if err := db.BuildIndex(name, spec); err != nil {
			t.Fatal(err)
		}
	}
	dir := db.Dir()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestBackendByteIdentical checks the storage-layer contract end to end:
// the same queries through the buffer pool and mmap backends — over
// both node record encodings — return byte-identical answers, including
// under concurrent mixed Search/SearchKNN load.
func TestBackendByteIdentical(t *testing.T) {
	dir := buildBackendDB(t)

	base, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer base.Close()

	type query struct {
		from  string
		start int
		qlen  int
		eps   float64
		k     int
	}
	queries := []query{
		{"seq-0", 0, 12, 8, 3},
		{"seq-3", 10, 18, 12, 5},
		{"seq-5", 4, 9, 5, 2},
		{"seq-7", 20, 15, 10, 4},
	}
	cut := func(db *DB, q query) []float64 {
		vals := db.Values(q.from)
		if vals == nil || q.start+q.qlen > len(vals) {
			t.Fatalf("bad query cut %+v", q)
		}
		return append([]float64(nil), vals[q.start:q.start+q.qlen]...)
	}

	// Baseline answers through the default pool backend.
	type answer struct {
		search []Match
		knn    []Match
	}
	indexNames := []string{"ix-v1", "ix-v2"}
	want := map[string][]answer{}
	for _, name := range indexNames {
		for _, q := range queries {
			vals := cut(base, q)
			ms, _, err := search(base, name, vals, q.eps)
			if err != nil {
				t.Fatal(err)
			}
			kms, _, err := searchKNN(base, name, vals, q.k)
			if err != nil {
				t.Fatal(err)
			}
			want[name] = append(want[name], answer{search: ms, knn: kms})
		}
	}
	// Cross-encoding sanity: the two indexes describe the same data, so the
	// range answers must agree before any backend comparison begins.
	for i := range queries {
		if !reflect.DeepEqual(want["ix-v1"][i].search, want["ix-v2"][i].search) {
			t.Fatalf("query %d: v1 and v2 range answers differ", i)
		}
	}

	for _, backend := range []Backend{BackendPool, BackendMmap} {
		t.Run(string(backend), func(t *testing.T) {
			db, err := OpenWith(dir, OpenOptions{Backend: backend})
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()

			const goroutines = 8
			const rounds = 12
			var wg sync.WaitGroup
			errCh := make(chan error, goroutines)
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for r := 0; r < rounds; r++ {
						name := indexNames[(g+r)%len(indexNames)]
						qi := (g + r) % len(queries)
						q := queries[qi]
						vals := cut(base, q)
						if (g+r)%2 == 0 {
							ms, _, err := search(db, name, vals, q.eps)
							if err != nil {
								errCh <- err
								return
							}
							if !reflect.DeepEqual(ms, want[name][qi].search) {
								errCh <- fmt.Errorf("%s/%s query %d: range answers diverge from pool baseline", backend, name, qi)
								return
							}
						} else {
							ms, _, err := searchKNN(db, name, vals, q.k)
							if err != nil {
								errCh <- err
								return
							}
							if !reflect.DeepEqual(ms, want[name][qi].knn) {
								errCh <- fmt.Errorf("%s/%s query %d: knn answers diverge from pool baseline", backend, name, qi)
								return
							}
						}
					}
				}(g)
			}
			wg.Wait()
			close(errCh)
			for err := range errCh {
				t.Fatal(err)
			}
		})
	}
}

// TestBackendServesBuiltIndex: a database opened with mmap reads an index it
// has just built through mmap, not through a buffer pool until it is
// reopened — one unstriped stats entry, nothing pinned even while a search
// is delivering answers — and answers as a pool-backed database does.
func TestBackendServesBuiltIndex(t *testing.T) {
	spec := IndexSpec{Method: MethodMaxEntropy, Categories: 8, Sparse: true}
	pool := newTestDB(t, 8, 60, 43)
	if err := pool.BuildIndex("ix", spec); err != nil {
		t.Fatal(err)
	}
	fresh := newTestDB(t, 8, 60, 43)
	fresh.Close()
	mm, err := OpenWith(fresh.Dir(), OpenOptions{Backend: BackendMmap})
	if err != nil {
		t.Fatal(err)
	}
	defer mm.Close()
	if err := mm.BuildIndex("ix", spec); err != nil {
		t.Fatal(err)
	}
	if st := mm.PoolStats(); len(st) != 1 || len(st[0].Shards) != 1 {
		t.Fatalf("the built index reports %+v, want one index read through one mmap source", st)
	}
	q := mm.Values("seq-3")[10:28]
	tree := mm.parts[0].indexes["ix"].ix.Tree
	pinned, visited := 0, 0
	if _, err := searchVisit(mm, "ix", q, 12, func(Match) bool {
		pinned = max(pinned, tree.PinnedPages())
		visited++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if pinned != 0 || tree.PinnedPages() != 0 {
		t.Errorf("%d pages pinned during the search, %d after it; want none through mmap", pinned, tree.PinnedPages())
	}
	want, _, err := search(pool, "ix", q, 12)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := search(mm, "ix", q, 12)
	if err != nil || len(want) == 0 || visited != len(want) || !reflect.DeepEqual(got, want) {
		t.Fatalf("mmap answers %v (%d visited, %v), pool answers %v", got, visited, err, want)
	}
	wantKNN, _, err := searchKNN(pool, "ix", q, 4)
	if err != nil {
		t.Fatal(err)
	}
	if gotKNN, _, err := searchKNN(mm, "ix", q, 4); err != nil || !reflect.DeepEqual(gotKNN, wantKNN) {
		t.Fatalf("mmap k-NN %v (%v), pool k-NN %v", gotKNN, err, wantKNN)
	}
}

// TestOpenWithRestoresEncoding checks that reopening a database reports each
// index's persisted encoding rather than the zero value.
func TestOpenWithRestoresEncoding(t *testing.T) {
	dir := buildBackendDB(t)
	db, err := OpenWith(dir, OpenOptions{Backend: BackendMmap})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for enc, name := range map[Encoding]string{EncodingV1: "ix-v1", EncodingV2: "ix-v2"} {
		info, err := db.Index(name)
		if err != nil {
			t.Fatal(err)
		}
		if info.Spec.Encoding != enc {
			t.Fatalf("index %s: encoding = %v, want %v", name, info.Spec.Encoding, enc)
		}
	}
}

// TestOpenRefusesRetiredEncoding: a database whose catalog names a tree
// file of a retired record layout (the compact record's first, format v3)
// fails to open with the typed error naming the index, holds nothing open —
// the index can be dropped on disk and the database opened — and BuildIndex
// refuses to write such a file in the first place.
func TestOpenRefusesRetiredEncoding(t *testing.T) {
	dir := buildBackendDB(t)
	treePath := filepath.Join(dir, "idx-ix-v2.twt")
	// Each patch is one hand-edited byte of the tree file's meta blob (a
	// negative offset counts from its end): in the version byte that ends a
	// v2 blob, 2, which makes it the meta page of a file of the compact
	// record's first layout, and the retired version 3; the retired inline
	// label layout in byte 45. Open refuses the database with the typed
	// error: it does not skip the index.
	for _, patch := range []struct {
		what string
		off  int
		b    byte
	}{
		{"first compact layout", -1, 2},
		{"encoding 3", -1, 3},
		{"inline layout", 45, 1},
	} {
		pf, err := storage.OpenFile(treePath, false)
		if err != nil {
			t.Fatal(err)
		}
		blob, err := pf.Meta()
		if err != nil {
			t.Fatal(err)
		}
		at := (len(blob) + patch.off) % len(blob)
		orig := blob[at]
		blob[at] = patch.b
		if err := pf.SetMeta(blob); err != nil {
			t.Fatal(err)
		}
		for _, backend := range []Backend{BackendPool, BackendMmap} {
			db, err := OpenWith(dir, OpenOptions{Backend: backend})
			if !errors.Is(err, disktree.ErrUnsupportedEncoding) {
				if db != nil {
					db.Close()
				}
				t.Fatalf("%s, %s: OpenWith: %v, want ErrUnsupportedEncoding", patch.what, backend, err)
			}
			if msg := err.Error(); !strings.Contains(msg, `"ix-v2"`) || !strings.Contains(msg, "rebuild the index") {
				t.Errorf("%s, %s: error %q names neither the index nor the remedy", patch.what, backend, msg)
			}
		}
		blob[at] = orig
		if err := pf.SetMeta(blob); err != nil {
			t.Fatal(err)
		}
		if err := pf.Close(); err != nil {
			t.Fatal(err)
		}
	}
	// With the byte put back the database opens again: a refusal held
	// nothing open and damaged nothing.
	if db, err := Open(dir); err != nil {
		t.Fatalf("Open after the meta page was restored: %v", err)
	} else if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	for _, ext := range []string{".twt", ".cat"} {
		if err := os.Remove(filepath.Join(dir, "idx-ix-v2"+ext)); err != nil {
			t.Fatal(err)
		}
	}
	db, err := Open(dir)
	if err != nil {
		t.Fatalf("Open after dropping the refused index: %v", err)
	}
	defer db.Close()
	err = db.BuildIndex("ix-v3", IndexSpec{Method: MethodMaxEntropy, Categories: 8, Encoding: 3})
	if !errors.Is(err, disktree.ErrUnsupportedEncoding) {
		t.Fatalf("BuildIndex with encoding 3: %v, want ErrUnsupportedEncoding", err)
	}
	if got := len(db.Indexes()); got != 1 {
		t.Fatalf("%d indexes after the refused build, want 1", got)
	}
}

// TestScalarIndexDefaultsToV1: an IndexSpec that names no encoding builds a
// v1 tree, and Index reports v1 before and after a reopen.
func TestScalarIndexDefaultsToV1(t *testing.T) {
	db := newTestDB(t, 4, 40, 43)
	if err := db.BuildIndex("ix", IndexSpec{Categories: 8}); err != nil {
		t.Fatal(err)
	}
	check := func(db *DB, when string) {
		t.Helper()
		info, err := db.Index("ix")
		if err != nil {
			t.Fatal(err)
		}
		if info.Spec.Encoding != EncodingV1 {
			t.Errorf("%s: encoding = %s, want v1", when, info.Spec.Encoding)
		}
	}
	check(db, "built")
	dir := db.Dir()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	check(re, "reopened")
}
