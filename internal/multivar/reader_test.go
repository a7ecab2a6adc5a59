package multivar

import (
	"context"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"twsearch/internal/categorize"
)

// The vector kernel's side of core.TestSearchReleasesReader: every way out
// of a search — answers, a visitor that stops, a context cancelled before
// and during the traversal, k-NN, a page that cannot be read — returns what the engine promises (ctx.Err() on cancellation, no
// answer delivered after a visitor's stop) and leaves no page of the tree
// pinned.
func TestMultivarSearchReleasesReader(t *testing.T) {
	rng := rand.New(rand.NewSource(547))
	data := randomVecDataset(rng, 40, 120, 2)
	path := filepath.Join(t.TempDir(), "pins.twt")
	ix, err := Build(data, path, Options{Kind: categorize.KindMaxEntropy, CatsPerDim: 4, Window: 3})
	if err != nil {
		t.Fatal(err)
	}
	ix.Close()
	// Four pages of pool against a tree of dozens: reads keep evicting, so a
	// pin that outlived its search would also show as a stripe stuck over
	// capacity.
	ix, err = Open(data, ix.Grid, path, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	var q [][]float64 // a stretch of the data, so answers exist
	for i := 0; q == nil; i++ {
		if p := data.Points(i); len(p) >= 32 {
			q = p[20:32]
		}
	}
	const eps = 9.0
	unpinned := func(after string) {
		t.Helper()
		if n := ix.Tree.PinnedPages(); n != 0 {
			t.Fatalf("%d pages pinned after %s", n, after)
		}
	}

	ms, _, err := ix.Search(bg, q, eps)
	if err != nil || len(ms) < 4 {
		t.Fatalf("search: %d matches, %v", len(ms), err)
	}
	unpinned("a search")

	seen := 0
	if _, err := ix.SearchVisit(bg, q, eps, func(Match) bool { seen++; return false }); err != nil || seen != 1 {
		t.Fatalf("stopping visitor saw %d matches, %v", seen, err)
	}
	unpinned("a visitor stop")

	ctx, cancel := context.WithCancel(bg)
	_, err = ix.SearchVisit(ctx, q, eps, func(Match) bool { cancel(); return true })
	if err != context.Canceled {
		t.Fatalf("search cancelled from its visitor: %v", err)
	}
	unpinned("a cancellation during the search")
	if ms, _, err := ix.Search(ctx, q, eps); err != context.Canceled || ms != nil {
		t.Fatalf("search under a cancelled context: %d matches, %v", len(ms), err)
	}
	if ms, _, err := ix.SearchKNN(ctx, q, 3); err != context.Canceled || ms != nil {
		t.Fatalf("k-NN under a cancelled context: %d matches, %v", len(ms), err)
	}
	unpinned("a cancelled context")

	again, _, err := ix.Search(bg, q, eps)
	if err != nil || !mMatchesBitIdentical(again, ms) {
		t.Fatalf("repeated search: %d matches, want %d, %v", len(again), len(ms), err)
	}
	unpinned("a repeated search")
	if _, _, err := ix.SearchKNN(bg, q, 3); err != nil {
		t.Fatal(err)
	}
	unpinned("a k-NN search")

	// The fault: the file loses everything past its meta page while the
	// index is open, so every page not in the pool fails to read.
	if err := os.Truncate(path, 4096); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ix.Search(bg, q, eps); err == nil {
		t.Fatal("search over a truncated file succeeded")
	}
	unpinned("a failed page read")
}
