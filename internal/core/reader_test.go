package core

import (
	"context"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"twsearch/internal/categorize"
)

// Every way out of a search — answers, a visitor that stops, a context
// cancelled before and during the traversal, a page that cannot be read —
// leaves no page of the tree pinned: the searcher's node reader holds one
// between reads, and releasing the searcher closes it.
func TestSearchReleasesReader(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	data := randomWalkDataset(rng, 40, 120)
	path := filepath.Join(t.TempDir(), "pins.twt")
	// Four pages of pool against a tree of dozens: reads keep evicting, so a
	// pin that outlived its search would also show as a stripe stuck over
	// capacity.
	ix, err := Build(data, path, Options{
		Kind: categorize.KindMaxEntropy, Categories: 12, Window: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	ix.Close()
	ix, err = Open(data, ix.Scheme, path, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	q := randomQuery(rng, 12)
	const eps = 6.0
	unpinned := func(after string) {
		t.Helper()
		if n := ix.Tree.PinnedPages(); n != 0 {
			t.Fatalf("%d pages pinned after %s", n, after)
		}
	}

	ms, _, err := search(ix, q, eps)
	if err != nil || len(ms) == 0 {
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
	if _, _, err := ix.Search(ctx, q, eps); err != context.Canceled {
		t.Fatalf("search under a cancelled context: %v", err)
	}
	unpinned("a cancelled context")

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
