package disktree

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"twsearch/internal/suffixtree"
)

// Property: the k-way disk merge of k disk trees over disjoint sequence
// sets is the in-memory tree of the union, in every cell of layout ×
// encoding × {dense, sparse, length-filtered}, through pools of 1..8 pages.
func TestMergeFilesEqualsMemory(t *testing.T) {
	rng := rand.New(rand.NewSource(211))
	dir := t.TempDir()
	shapes := []struct {
		name   string
		sparse bool
		minLen int
	}{{"dense", false, 0}, {"sparse", true, 0}, {"minlen", false, 3}}
	for k := 2; k <= 9; k++ {
		for _, layout := range []Layout{LayoutReference, LayoutInline} {
			for _, enc := range []Encoding{EncodingV1, EncodingV2, EncodingV3} {
				for _, shape := range shapes {
					name := fmt.Sprintf("k=%d/%s/%s/%s", k, layout, enc, shape.name)
					// k non-empty disjoint sets: sequence i goes to set i%k.
					ts := randomTexts(rng, k+rng.Intn(2*k), 25, 1+rng.Intn(4))
					sets := make([][]int, k)
					for i := 0; i < ts.Len(); i++ {
						sets[i%k] = append(sets[i%k], i)
					}
					paths := make([]string, k)
					for i, set := range sets {
						paths[i] = filepath.Join(dir, fmt.Sprintf("in-%d.twt", i))
						f, err := CreateEncoded(paths[i], suffixtree.BuildFiltered(ts, set, shape.sparse, shape.minLen), 8, layout, enc)
						if err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						f.Close()
					}
					mf, err := MergeFiles(ts, paths, filepath.Join(dir, "out.twt"), 1+rng.Intn(8))
					if err != nil {
						t.Fatalf("%s: MergeFiles: %v", name, err)
					}
					if mf.Layout() != layout || mf.Encoding() != enc || mf.Sparse() != shape.sparse {
						t.Fatalf("%s: merge lost the file shape", name)
					}
					if _, err := mf.Validate(ts); err != nil {
						t.Fatalf("%s: Validate: %v", name, err)
					}
					if enc == EncodingV3 {
						checkHulls(t, mf, ts)
					}
					got, err := mf.Load(ts)
					if err != nil {
						t.Fatalf("%s: Load: %v", name, err)
					}
					want := suffixtree.BuildFiltered(ts, allSeqs(ts), shape.sparse, shape.minLen)
					if !suffixtree.Equal(want, got) {
						t.Fatalf("%s: merged tree differs from the in-memory tree of the union", name)
					}
					mf.Close()
					if layout == LayoutInline {
						// Inline records hold no label references, so the merge
						// must write the very bytes a direct serialization of the
						// union's tree does: same records, same post-order.
						direct := filepath.Join(dir, "direct.twt")
						df, err := CreateEncoded(direct, want, 8, layout, enc)
						if err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						df.Close()
						if !sameFile(t, direct, filepath.Join(dir, "out.twt")) {
							t.Fatalf("%s: merged file is not byte-identical to the directly written tree", name)
						}
					}
				}
			}
		}
	}
}

func sameFile(t *testing.T, a, b string) bool {
	t.Helper()
	ar, err := os.ReadFile(a)
	if err != nil {
		t.Fatal(err)
	}
	br, err := os.ReadFile(b)
	if err != nil {
		t.Fatal(err)
	}
	return bytes.Equal(ar, br)
}

// A merge whose inputs disagree on sparseness, layout, encoding or length
// filter — or whose sequence sets overlap — is refused, whichever of the k
// inputs is the odd one, and leaves no output file behind.
func TestMergeFilesRejects(t *testing.T) {
	ts := suffixtree.NewTextStore()
	ts.Add([]Symbol{1, 2})
	ts.Add([]Symbol{2, 1})
	ts.Add([]Symbol{1, 1})
	type input struct {
		seq    int
		sparse bool
		minLen int
		layout Layout
		enc    Encoding
	}
	plain := func(seq int) input { return input{seq: seq, enc: EncodingV1} }
	for _, tc := range []struct {
		name string
		odd  input
	}{
		{"sparsity", input{seq: 2, sparse: true, enc: EncodingV1}},
		{"layout", input{seq: 2, layout: LayoutInline, enc: EncodingV1}},
		{"encoding", input{seq: 2, enc: EncodingV2}},
		{"length filter", input{seq: 2, minLen: 2, enc: EncodingV1}},
		{"leaf collision", plain(0)},
	} {
		for oddAt := 0; oddAt < 3; oddAt++ {
			dir := t.TempDir()
			ins := []input{plain(0), plain(1)}
			ins = append(ins[:oddAt], append([]input{tc.odd}, ins[oddAt:]...)...)
			paths := make([]string, len(ins))
			for i, in := range ins {
				paths[i] = filepath.Join(dir, fmt.Sprintf("in-%d", i))
				f, err := CreateEncoded(paths[i], suffixtree.BuildFiltered(ts, []int{in.seq}, in.sparse, in.minLen), 8, in.layout, in.enc)
				if err != nil {
					t.Fatal(err)
				}
				f.Close()
			}
			out := filepath.Join(dir, "out")
			if _, err := MergeFiles(ts, paths, out, 8); err == nil {
				t.Fatalf("mixed %s accepted with the odd input at %d", tc.name, oddAt)
			}
			if _, err := os.Stat(out); !os.IsNotExist(err) {
				t.Fatalf("%s at %d: rejected merge left its output behind (stat: %v)", tc.name, oddAt, err)
			}
		}
	}
}

// Build's bytes depend on the inputs alone: not on how many goroutines
// spill the batches, and not on the run.
func TestBuildDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(293))
	ts := randomTexts(rng, 40, 40, 4)
	var want []byte
	for _, procs := range []int{1, 4, 4} {
		prev := runtime.GOMAXPROCS(procs)
		path := filepath.Join(t.TempDir(), "det.twt")
		f, err := Build(ts, allSeqs(ts), path, BuildOptions{BatchSize: 3, PoolPages: 8, Encoding: EncodingV3})
		runtime.GOMAXPROCS(prev)
		if err != nil {
			t.Fatal(err)
		}
		f.Close()
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = raw
		} else if !bytes.Equal(want, raw) {
			t.Fatalf("Build at GOMAXPROCS=%d differs from the GOMAXPROCS=1 file", procs)
		}
	}
}

// More batches than the fan-in merge in several passes and still equal the
// single-batch build.
func TestBuildMultiPass(t *testing.T) {
	rng := rand.New(rand.NewSource(307))
	ts := randomTexts(rng, maxFanIn+9, 20, 3)
	load := func(batch int, stats *BuildStats) *suffixtree.Tree {
		f, err := Build(ts, allSeqs(ts), filepath.Join(t.TempDir(), "mp.twt"), BuildOptions{BatchSize: batch, PoolPages: 4, Stats: stats})
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		if _, err := f.Validate(ts); err != nil {
			t.Fatal(err)
		}
		tree, err := f.Load(ts)
		if err != nil {
			t.Fatal(err)
		}
		return tree
	}
	var one, many BuildStats
	want := load(ts.Len(), &one)
	got := load(1, &many)
	if one.Batches != 1 || one.MergeRounds != 0 || one.Merges != 0 {
		t.Errorf("single batch: %+v, want 1 batch and no merge", one)
	}
	// 41 batches: a 32-way merge plus 9 batches merged 9-way, then 2-way.
	if many.Batches != maxFanIn+9 || many.MergeRounds != 2 || many.Merges != 3 {
		t.Errorf("multi-pass: %+v, want %d batches, 2 passes, 3 merges", many, maxFanIn+9)
	}
	if !suffixtree.Equal(want, got) {
		t.Fatal("multi-pass build differs from the single-batch build")
	}
}

// A build that fails — here in the merge, on overlapping batches — leaves
// the index directory exactly as it found it.
func TestBuildFailureLeavesNoScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(311))
	ts := randomTexts(rng, 4, 20, 3)
	dir := t.TempDir()
	keep := filepath.Join(dir, "bystander")
	if err := os.WriteFile(keep, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := Build(ts, []int{0, 1, 2, 3, 0, 1}, filepath.Join(dir, "fail.twt"), BuildOptions{BatchSize: 2, PoolPages: 8})
	if err == nil || !strings.Contains(err.Error(), "leaf collision") {
		t.Fatalf("overlapping batches: err = %v, want a leaf collision", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "bystander" {
		names := make([]string, len(entries))
		for i, e := range entries {
			names[i] = e.Name()
		}
		t.Fatalf("failed build left %v in the index directory", names)
	}
}
