package seqdb

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"twsearch/internal/categorize"
	"twsearch/internal/core"
)

// TestReadIndexMeta holds the index record, which carries an index's
// window and pool pages beside its scheme, to what was written: the
// settings round trip, and a bad magic, a cut record and settings no build
// writes are refused.
func TestReadIndexMeta(t *testing.T) {
	scheme, err := categorize.Fit(categorize.KindMaxEntropy, []float64{1, 2, 3, 4, 5}, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	record := func(window, poolPages int) []byte {
		t.Helper()
		var buf bytes.Buffer
		if err := (core.IndexRecord{Window: window, PoolPages: poolPages, Scheme: scheme}).Write(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	read := func(b []byte) (core.IndexRecord, error) { return core.ReadIndexRecord(bytes.NewReader(b)) }

	t.Run("valid values parse", func(t *testing.T) {
		for _, want := range [][2]int{{8, 32}, {-1, 0}} {
			rec, err := read(record(want[0], want[1]))
			if err != nil || rec.Window != want[0] || rec.PoolPages != want[1] {
				t.Fatalf("got (%d, %d, %v), want (%d, %d, nil)", rec.Window, rec.PoolPages, err, want[0], want[1])
			}
			if rec.Scheme.NumCategories() != scheme.NumCategories() || rec.Scheme.Kind() != scheme.Kind() {
				t.Fatalf("scheme read back as %d %s categories, written as %d %s", rec.Scheme.NumCategories(), rec.Scheme.Kind(), scheme.NumCategories(), scheme.Kind())
			}
		}
	})
	t.Run("bad magic is an error", func(t *testing.T) {
		b := record(8, 32)
		copy(b, "TWINDEX0")
		if _, err := read(b); err == nil || !strings.Contains(err.Error(), "not an index record") {
			t.Fatalf("err = %v, want not an index record", err)
		}
	})
	t.Run("truncation is an error", func(t *testing.T) {
		b := record(8, 32)
		for _, n := range []int{0, 7, 23, 24, len(b) - 1} {
			if _, err := read(b[:n]); err == nil {
				t.Fatalf("a record cut to %d of its %d bytes was read", n, len(b))
			}
		}
		if _, err := read(append(b, 0)); err == nil || !strings.Contains(err.Error(), "bytes after its scheme") {
			t.Fatalf("err = %v, want bytes after its scheme", err)
		}
	})
	t.Run("malformed window is an error", func(t *testing.T) {
		for _, w := range []int{0, -2} {
			if _, err := read(record(w, 0)); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("bad settings: window %d,", w)) {
				t.Fatalf("window %d: err = %v, want bad settings", w, err)
			}
		}
	})
	t.Run("malformed pool_pages is an error", func(t *testing.T) {
		if _, err := read(record(4, -1)); err == nil || !strings.Contains(err.Error(), "bad settings: window 4, pool pages -1") {
			t.Fatalf("err = %v, want bad settings", err)
		}
	})
}

// TestOpenRejectsMalformedMeta corrupts the header of a persisted index's
// record — its magic, or its window — and checks that reopening fails
// loudly, naming the file, instead of reopening the index with other
// settings.
func TestOpenRejectsMalformedMeta(t *testing.T) {
	for _, tc := range []struct {
		at   int
		with string
		want string
	}{
		{0, "TWINDEX0", "not an index record"},
		{8, "\x00\x00\x00\x00\x00\x00\x00\x00", "bad settings: window 0,"},
	} {
		db := newTestDB(t, 4, 30, 41)
		if err := db.BuildIndex("m", IndexSpec{Method: MethodMaxEntropy, Categories: 6, Window: 2}); err != nil {
			t.Fatal(err)
		}
		path := db.parts[0].recordPath("m")
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		copy(b[tc.at:], tc.with)
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(db.Dir()); err == nil || !strings.Contains(err.Error(), tc.want) || !strings.Contains(err.Error(), path) {
			t.Fatalf("Open = %v, want %q naming %s", err, tc.want, path)
		}
	}
}

// TestDropIndexReportsRemoveErrors makes one of an index's two files
// unremovable (a non-empty directory in its place) and checks DropIndex
// reports the failure, naming the file, and drops the index from the
// handle. The record goes first: when it cannot be removed the tree stays,
// so the index is still whole on disk; when the tree cannot, the record is
// gone, so what is left is an uncommitted tree the next Open skips.
func TestDropIndexReportsRemoveErrors(t *testing.T) {
	for _, blocked := range []string{"idx-d.cat", "idx-d.twt"} {
		db := newTestDB(t, 4, 30, 42)
		if err := db.BuildIndex("d", IndexSpec{Method: MethodMaxEntropy, Categories: 6}); err != nil {
			t.Fatal(err)
		}
		p := db.parts[0]
		path := filepath.Join(db.Dir(), blocked)
		if err := os.Remove(path); err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Join(path, "blocker"), 0o755); err != nil {
			t.Fatal(err)
		}
		err := db.DropIndex("d")
		if err == nil || !strings.Contains(err.Error(), blocked) {
			t.Fatalf("%s blocked: DropIndex = %v, want an error naming it", blocked, err)
		}
		if _, err := db.Index("d"); err == nil {
			t.Errorf("%s blocked: index still listed after DropIndex", blocked)
		}
		if blocked == "idx-d.cat" {
			if _, err := os.Stat(p.treePath("d")); err != nil {
				t.Errorf("record blocked: the tree went with it: %v", err)
			}
			continue
		}
		if _, err := os.Stat(p.recordPath("d")); !os.IsNotExist(err) {
			t.Errorf("tree blocked: the record is still there (%v)", err)
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		re, err := Open(db.Dir())
		if err != nil {
			t.Fatalf("tree blocked: reopen: %v", err)
		}
		if got := re.Indexes(); len(got) != 0 {
			t.Errorf("tree blocked: reopened with indexes %v", got)
		}
		re.Close()
	}
}

// TestIndexInfoSurvivesReopen holds what Index reports of an index just
// built to what it reports after Close and Open, on a flat database and on
// a 2-shard root of dimension 1 and 2. The data takes three values, so the
// identity and maximum-entropy fits have fewer categories than asked, and
// a MinAnswerLen of 1 is stored as no floor.
func TestIndexInfoSurvivesReopen(t *testing.T) {
	specs := map[string]IndexSpec{
		"identity": {Method: MethodExact, Categories: 20},
		"maxent":   {Method: MethodMaxEntropy, Categories: 8, Window: 3, MinAnswerLen: 1},
		"equal":    {Method: MethodEqualLength, Categories: 4, Sparse: true, MinAnswerLen: 5},
		"kmeans":   {Method: MethodKMeans, Categories: 3, Window: 2, MinAnswerLen: 5, PoolPages: 16},
	}
	for _, dim := range []int{1, 2} {
		for _, shards := range []int{1, 2} {
			t.Run(fmt.Sprintf("d=%d/shards=%d", dim, shards), func(t *testing.T) {
				db, err := CreateDim(filepath.Join(t.TempDir(), "db"), dim)
				if err != nil {
					t.Fatal(err)
				}
				defer db.Close()
				rng := rand.New(rand.NewSource(int64(dim)))
				for i := 0; i < 6; i++ {
					vals := make([]float64, 30*dim)
					for j := range vals {
						vals[j] = float64(rng.Intn(3))
					}
					if err := db.Add(fmt.Sprintf("s%d", i), vals); err != nil {
						t.Fatal(err)
					}
				}
				if err := db.Save(); err != nil {
					t.Fatal(err)
				}
				if shards > 1 {
					if db, err = db.PartitionInto(filepath.Join(t.TempDir(), "root"), shards); err != nil {
						t.Fatal(err)
					}
					defer db.Close()
				}
				built := map[string]IndexInfo{}
				for name, spec := range specs {
					if err := db.BuildIndex(name, spec); err != nil {
						t.Fatal(err)
					}
					if built[name], err = db.Index(name); err != nil {
						t.Fatal(err)
					}
				}
				if err := db.Close(); err != nil {
					t.Fatal(err)
				}
				re, err := Open(db.Dir())
				if err != nil {
					t.Fatal(err)
				}
				defer re.Close()
				for name, want := range built {
					if got, err := re.Index(name); err != nil || !reflect.DeepEqual(got, want) {
						t.Errorf("%s: reopened as %+v (%v), built as %+v", name, got, err, want)
					}
				}
			})
		}
	}
}

// TestInterruptedBuildOpens: a build cut between its tree's rename and its
// record's leaves a tree with no record, an uncommitted build. The
// database opens with its other indexes, which answer as before, and the
// next build of the name succeeds over the orphan tree and answers as the
// first build did: in both dimensions, flat and on a 2-shard root where no
// shard committed the index.
func TestInterruptedBuildOpens(t *testing.T) {
	spec := IndexSpec{Categories: 4, Sparse: true}
	for _, dim := range []int{1, 2} {
		for _, shards := range []int{1, 2} {
			t.Run(fmt.Sprintf("d=%d/shards=%d", dim, shards), func(t *testing.T) {
				db := newVectorTestDB(t, 6, 30, dim, 91)
				if shards > 1 {
					sdb, err := db.PartitionInto(filepath.Join(t.TempDir(), "root"), shards)
					if err != nil {
						t.Fatal(err)
					}
					t.Cleanup(func() { sdb.Close() })
					db = sdb
				}
				q := cut(db, "vec-1", 3, 9)
				eps := 3.0 * float64(dim)
				want := map[string][]Match{}
				for _, name := range []string{"a", "b", "c"} {
					if err := db.BuildIndex(name, spec); err != nil {
						t.Fatal(err)
					}
					got, _, err := search(db, name, q, eps)
					if err != nil || len(got) == 0 {
						t.Fatalf("%s: %d answers (%v)", name, len(got), err)
					}
					want[name] = got
				}
				if err := db.Close(); err != nil {
					t.Fatal(err)
				}
				for _, p := range db.parts {
					if err := os.Remove(p.recordPath("b")); err != nil {
						t.Fatal(err)
					}
				}
				re, err := Open(db.Dir())
				if err != nil {
					t.Fatalf("Open over b's orphan tree: %v", err)
				}
				defer re.Close()
				names := re.Indexes()
				sort.Strings(names)
				if !reflect.DeepEqual(names, []string{"a", "c"}) {
					t.Fatalf("reopened with indexes %v, want [a c]", names)
				}
				if err := re.BuildIndex("b", spec); err != nil {
					t.Fatalf("rebuilding b over its orphan tree: %v", err)
				}
				for name, w := range want {
					if got, _, err := search(re, name, q, eps); err != nil || !reflect.DeepEqual(got, w) {
						t.Errorf("%s: %d answers (%v) after the reopen, %d before", name, len(got), err, len(w))
					}
				}
			})
		}
	}
}
