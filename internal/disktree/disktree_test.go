package disktree

import (
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"testing/quick"

	"twsearch/internal/suffixtree"
)

func randomTexts(rng *rand.Rand, nSeq, maxLen, alphabet int) *suffixtree.TextStore {
	ts := suffixtree.NewTextStore()
	for i := 0; i < nSeq; i++ {
		n := 1 + rng.Intn(maxLen)
		text := make([]Symbol, n)
		for j := range text {
			text[j] = Symbol(rng.Intn(alphabet))
		}
		ts.Add(text)
	}
	return ts
}

func allSeqs(ts *suffixtree.TextStore) []int {
	out := make([]int, ts.Len())
	for i := range out {
		out[i] = i
	}
	return out
}

func TestCreateOpenRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(201))
	ts := randomTexts(rng, 5, 40, 3)
	tree := suffixtree.BuildMerged(ts, allSeqs(ts), false)
	path := filepath.Join(t.TempDir(), "tree.twt")

	f, err := Create(path, tree, 64)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	wantStats := tree.ComputeStats()
	if int(f.NumNodes()) != wantStats.Nodes {
		t.Errorf("NumNodes = %d, want %d", f.NumNodes(), wantStats.Nodes)
	}
	if int(f.NumLeaves()) != wantStats.Leaves {
		t.Errorf("NumLeaves = %d, want %d", f.NumLeaves(), wantStats.Leaves)
	}
	got, err := f.Load(ts)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if !suffixtree.Equal(tree, got) {
		t.Fatal("loaded tree differs from original")
	}
	f.Close()

	// Reopen read-only with a tiny pool and verify again.
	f2, err := Open(path, 2, true)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer f2.Close()
	if f2.Sparse() {
		t.Error("dense tree reported sparse")
	}
	got2, err := f2.Load(ts)
	if err != nil {
		t.Fatalf("Load after reopen: %v", err)
	}
	if !suffixtree.Equal(tree, got2) {
		t.Fatal("tree differs after reopen through a 2-page pool")
	}
	if f2.SizeBytes() <= 0 {
		t.Error("SizeBytes not positive")
	}
}

func TestOpenGarbage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "junk")
	if err := os.WriteFile(path, []byte(strings.Repeat("x", 8192)), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path, 4, true); err == nil {
		t.Fatal("garbage accepted")
	}
}

// Property: Create→Load is the identity for random dense and sparse trees.
func TestQuickDiskRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(207))
	dir := t.TempDir()
	count := 0
	f := func() bool {
		count++
		ts := randomTexts(rng, 1+rng.Intn(5), 30, 1+rng.Intn(4))
		sparse := rng.Intn(2) == 0
		tree := suffixtree.BuildNaive(ts, allSeqs(ts), sparse)
		path := filepath.Join(dir, "t"+string(rune('a'+count%26))+".twt")
		df, err := Create(path, tree, 1+rng.Intn(16))
		if err != nil {
			return false
		}
		defer df.Close()
		if df.Sparse() != sparse {
			return false
		}
		got, err := df.Load(ts)
		if err != nil {
			return false
		}
		return suffixtree.Equal(tree, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Build must equal the naive in-memory tree and leave only the finished
// file in the index directory.
func TestBuildPipeline(t *testing.T) {
	rng := rand.New(rand.NewSource(217))
	ts := randomTexts(rng, 13, 30, 3)
	want := suffixtree.BuildNaive(ts, allSeqs(ts), false)
	dir := t.TempDir()
	f, err := Build(ts, allSeqs(ts), filepath.Join(dir, "final.twt"), BuildOptions{PoolPages: 16})
	if err != nil {
		t.Fatal(err)
	}
	got, err := f.Load(ts)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	f.Close()
	if !suffixtree.Equal(want, got) {
		t.Fatal("Build tree differs from naive")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "final.twt" {
		t.Errorf("index directory holds %d entries after the build, want only final.twt", len(entries))
	}
}

func TestBuildEmpty(t *testing.T) {
	ts := suffixtree.NewTextStore()
	out := filepath.Join(t.TempDir(), "empty.twt")
	f, err := Build(ts, nil, out, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	root, err := f.ReadNode(f.Root())
	if err != nil {
		t.Fatal(err)
	}
	if root.Leaf || len(root.Children) != 0 {
		t.Fatal("empty build root malformed")
	}
}

// A node with very many children (wide root) must round-trip: records cross
// page boundaries.
func TestWideRootCrossesPages(t *testing.T) {
	ts := suffixtree.NewTextStore()
	// 2000 distinct symbols, one two-symbol sequence each... instead: one
	// sequence cycling 700 distinct symbols gives a root with 700 children;
	// its record (~8.4 KB) spans three pages.
	text := make([]Symbol, 1400)
	for i := range text {
		text[i] = Symbol(i % 700)
	}
	ts.Add(text)
	tree := suffixtree.BuildNaive(ts, []int{0}, false)
	path := filepath.Join(t.TempDir(), "wide.twt")
	f, err := Create(path, tree, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	root, err := f.ReadNode(f.Root())
	if err != nil {
		t.Fatal(err)
	}
	if len(root.Children) != 700 {
		t.Fatalf("root children = %d, want 700", len(root.Children))
	}
	got, err := f.Load(ts)
	if err != nil {
		t.Fatal(err)
	}
	if !suffixtree.Equal(tree, got) {
		t.Fatal("wide tree round trip failed")
	}
}

func TestPoolStatsAccumulate(t *testing.T) {
	rng := rand.New(rand.NewSource(223))
	ts := randomTexts(rng, 6, 50, 2)
	tree := suffixtree.BuildMerged(ts, allSeqs(ts), false)
	path := filepath.Join(t.TempDir(), "t.twt")
	f, err := Create(path, tree, 64)
	if err != nil {
		t.Fatal(err)
	}
	f.Close()
	// Tiny pool: a full load must evict and miss.
	f2, err := Open(path, 1, true)
	if err != nil {
		t.Fatal(err)
	}
	defer f2.Close()
	if _, err := f2.Load(ts); err != nil {
		t.Fatal(err)
	}
	st := f2.PoolStats()
	if st.Misses == 0 {
		t.Error("no pool misses through a 1-page pool")
	}
	if f2.PagesRead() == 0 {
		t.Error("no physical page reads counted")
	}
}

func TestValidateOK(t *testing.T) {
	rng := rand.New(rand.NewSource(229))
	for trial := 0; trial < 10; trial++ {
		ts := randomTexts(rng, 2+rng.Intn(5), 30, 1+rng.Intn(4))
		sparse := rng.Intn(2) == 0
		out := filepath.Join(t.TempDir(), "v.twt")
		f, err := Build(ts, allSeqs(ts), out, BuildOptions{PoolPages: 8})
		if err != nil {
			t.Fatal(err)
		}
		if sparse {
			f.Close()
			f, err = Build(ts, allSeqs(ts), filepath.Join(t.TempDir(), "vs.twt"), BuildOptions{Sparse: true})
			if err != nil {
				t.Fatal(err)
			}
		}
		st, err := f.Validate(ts)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if st.Nodes != f.NumNodes() || st.Leaves != f.NumLeaves() {
			t.Fatalf("trial %d: walk counters disagree with meta", trial)
		}
		f.Close()
	}
}

func TestValidateDetectsBadLeaf(t *testing.T) {
	ts := suffixtree.NewTextStore()
	ts.Add([]Symbol{1, 1, 2})
	tree := suffixtree.BuildNaive(ts, []int{0}, false)
	// Corrupt one leaf's run length before serializing.
	var corrupt func(n *suffixtree.Node) bool
	corrupt = func(n *suffixtree.Node) bool {
		if n.Leaf != nil {
			n.Leaf.RunLen += 5
			return true
		}
		for _, c := range n.Children {
			if corrupt(c) {
				return true
			}
		}
		return false
	}
	if !corrupt(tree.Root) {
		t.Fatal("no leaf found")
	}
	f, err := Create(filepath.Join(t.TempDir(), "bad.twt"), tree, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.Validate(ts); err == nil {
		t.Fatal("corrupted run length not detected")
	}
}

func TestValidateDetectsBadPath(t *testing.T) {
	ts := suffixtree.NewTextStore()
	ts.Add([]Symbol{1, 2, 3})
	tree := suffixtree.BuildNaive(ts, []int{0}, false)
	// Point one leaf at the wrong suffix position.
	var corrupt func(n *suffixtree.Node) bool
	corrupt = func(n *suffixtree.Node) bool {
		if n.Leaf != nil {
			n.Leaf.Pos = (n.Leaf.Pos + 1) % 3
			return true
		}
		for _, c := range n.Children {
			if corrupt(c) {
				return true
			}
		}
		return false
	}
	corrupt(tree.Root)
	f, err := Create(filepath.Join(t.TempDir(), "bad2.twt"), tree, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.Validate(ts); err == nil {
		t.Fatal("corrupted leaf position not detected")
	}
}
