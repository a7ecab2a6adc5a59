package seqdb

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestReadIndexMeta(t *testing.T) {
	write := func(content string) string {
		t.Helper()
		p := filepath.Join(t.TempDir(), "idx-x.meta")
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}

	t.Run("missing file yields defaults", func(t *testing.T) {
		w, pp, err := readIndexMeta(filepath.Join(t.TempDir(), "absent.meta"))
		if err != nil || w != -1 || pp != 0 {
			t.Fatalf("got (%d, %d, %v), want (-1, 0, nil)", w, pp, err)
		}
	})
	t.Run("valid values parse", func(t *testing.T) {
		w, pp, err := readIndexMeta(write("window=8\npool_pages=32\n"))
		if err != nil || w != 8 || pp != 32 {
			t.Fatalf("got (%d, %d, %v), want (8, 32, nil)", w, pp, err)
		}
	})
	t.Run("unknown keys and non-kv lines are ignored", func(t *testing.T) {
		w, pp, err := readIndexMeta(write("future_knob=yes\njust a note\n\nwindow=3\n"))
		if err != nil || w != 3 || pp != 0 {
			t.Fatalf("got (%d, %d, %v), want (3, 0, nil)", w, pp, err)
		}
	})
	t.Run("malformed window is an error", func(t *testing.T) {
		_, _, err := readIndexMeta(write("window=abc\n"))
		if err == nil || !strings.Contains(err.Error(), "bad window value") {
			t.Fatalf("err = %v, want bad window value", err)
		}
	})
	t.Run("malformed pool_pages is an error", func(t *testing.T) {
		_, _, err := readIndexMeta(write("window=4\npool_pages=12x\n"))
		if err == nil || !strings.Contains(err.Error(), "bad pool_pages value") {
			t.Fatalf("err = %v, want bad pool_pages value", err)
		}
	})
}

// TestOpenRejectsMalformedMeta corrupts a persisted index's meta file and
// checks that reopening fails loudly instead of silently falling back to
// default window semantics.
func TestOpenRejectsMalformedMeta(t *testing.T) {
	db := newTestDB(t, 4, 30, 41)
	if err := db.BuildIndex("m", IndexSpec{Method: MethodMaxEntropy, Categories: 6, Window: 2}); err != nil {
		t.Fatal(err)
	}
	dir := db.Dir()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	metaPath := filepath.Join(dir, "idx-m.meta")
	if err := os.WriteFile(metaPath, []byte("window=oops\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err == nil || !strings.Contains(err.Error(), "bad window value") {
		t.Fatalf("Open = %v, want bad window value error", err)
	}
}

// TestDropIndexReportsRemoveErrors makes one of the index files
// unremovable (a non-empty directory in its place) and checks DropIndex
// reports the failure while still removing the other files.
func TestDropIndexReportsRemoveErrors(t *testing.T) {
	db := newTestDB(t, 4, 30, 42)
	if err := db.BuildIndex("d", IndexSpec{Method: MethodMaxEntropy, Categories: 6}); err != nil {
		t.Fatal(err)
	}
	schemePath := db.parts[0].schemePath("d")
	if err := os.Remove(schemePath); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(schemePath, "blocker"), 0o755); err != nil {
		t.Fatal(err)
	}
	err := db.DropIndex("d")
	if err == nil || !strings.Contains(err.Error(), "idx-d.cat") {
		t.Fatalf("DropIndex = %v, want error naming the scheme file", err)
	}
	// The removable files must still be gone: partial cleanup is reported,
	// not abandoned.
	for _, p := range []string{db.parts[0].metaPath("d"), db.parts[0].treePath("d")} {
		if _, err := os.Stat(p); !os.IsNotExist(err) {
			t.Errorf("%s still present after DropIndex", p)
		}
	}
	// And the index is gone from the handle regardless.
	if _, err := db.Index("d"); err == nil {
		t.Error("index still listed after DropIndex")
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
