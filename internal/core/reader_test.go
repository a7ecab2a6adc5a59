package core

import (
	"context"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"twsearch/internal/categorize"
	"twsearch/internal/sequence"
)

// Every way out of a search — answers, a visitor that stops, a context
// cancelled before and during the traversal, k-NN, a page that cannot be
// read — returns what the engine promises (ctx.Err() on cancellation, no
// answer delivered after a visitor's stop) and leaves no page of the tree
// pinned: the searcher's node reader holds one between reads, and
// releasing the searcher closes it. Over values and over points of
// dimension 2.
func TestSearchReleasesReader(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	data := randomWalkDataset(rng, 40, 120)
	q := randomQuery(rng, 12)
	vec := randomPointDataset(rand.New(rand.NewSource(547)), 40, 120, 2)
	var vq []float64 // a stretch of the data, so answers exist
	for i := 0; vq == nil; i++ {
		if p := vec.Values(i); len(p) >= 2*32 {
			vq = p[2*20 : 2*32]
		}
	}
	for _, c := range []struct {
		data *sequence.Dataset
		cats int
		q    []float64
		eps  float64
	}{
		{data, 12, q, 6},
		{vec, 4, vq, 9},
	} {
		path := filepath.Join(t.TempDir(), "pins.twt")
		ix, err := Build(c.data, path, Options{Kind: categorize.KindMaxEntropy, Categories: c.cats, Window: 3})
		if err != nil {
			t.Fatal(err)
		}
		ix.Close()
		// Four pages of pool against a tree of dozens: reads keep evicting, so
		// a pin that outlived its search would also show as a stripe stuck
		// over capacity.
		ix, err = Open(c.data, ix.Scheme, path, 4, 3)
		if err != nil {
			t.Fatal(err)
		}
		defer ix.Close()
		q, eps := c.q, c.eps
		unpinned := func(after string) {
			t.Helper()
			if n := ix.Tree.PinnedPages(); n != 0 {
				t.Fatalf("d=%d: %d pages pinned after %s", c.data.Dim(), n, after)
			}
		}

		ms, _, err := search(ix, q, eps)
		if err != nil || len(ms) < 4 {
			t.Fatalf("search: %d matches, %v", len(ms), err)
		}
		unpinned("a search")

		seen := 0
		if _, err := searchVisit(ix, q, eps, func(Match) bool { seen++; return false }); err != nil || seen != 1 {
			t.Fatalf("stopping visitor saw %d matches, %v", seen, err)
		}
		unpinned("a visitor stop")

		ctx, cancel := context.WithCancel(context.Background())
		_, err = ix.SearchVisit(ctx, q, eps, func(Match) bool { cancel(); return true })
		if err != context.Canceled {
			t.Fatalf("search cancelled from its visitor: %v", err)
		}
		unpinned("a cancellation during the search")
		if ms, _, err := ix.Search(ctx, q, eps); err != context.Canceled || ms != nil {
			t.Fatalf("search under a cancelled context: %d matches, %v", len(ms), err)
		}
		if ms, _, err := knn(ctx, ix, q, 3); err != context.Canceled || ms != nil {
			t.Fatalf("k-NN under a cancelled context: %d matches, %v", len(ms), err)
		}
		unpinned("a cancelled context")

		again, _, err := search(ix, q, eps)
		if err != nil || !matchesBitIdentical(again, ms) {
			t.Fatalf("repeated search: %d matches, want %d, %v", len(again), len(ms), err)
		}
		unpinned("a repeated search")
		if _, _, err := searchKNN(ix, q, 3); err != nil {
			t.Fatal(err)
		}
		unpinned("a k-NN search")

		// The fault: the file loses everything past its meta page while the
		// index is open, so every page not in the pool fails to read.
		if err := os.Truncate(path, 4096); err != nil {
			t.Fatal(err)
		}
		if _, _, err := search(ix, q, eps); err == nil {
			t.Fatal("search over a truncated file succeeded")
		}
		unpinned("a failed page read")
	}
}
