package disktree

import (
	"math/rand"
	"path/filepath"
	"testing"
	"testing/quick"

	"twsearch/internal/suffixtree"
)

// Property: the inline layout round-trips exactly like the reference one —
// Create→Load is the identity, and Validate passes.
func TestQuickInlineRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(601))
	dir := t.TempDir()
	count := 0
	f := func() bool {
		count++
		ts := randomTexts(rng, 1+rng.Intn(5), 25, 1+rng.Intn(4))
		sparse := rng.Intn(2) == 0
		tree := suffixtree.BuildNaive(ts, allSeqs(ts), sparse)
		path := filepath.Join(dir, "il.twt")
		df, err := CreateEncoded(path, tree, 1+rng.Intn(16), LayoutInline, EncodingV1)
		if err != nil {
			return false
		}
		defer df.Close()
		if df.Layout() != LayoutInline {
			return false
		}
		if _, err := df.Validate(ts); err != nil {
			return false
		}
		got, err := df.Load(ts)
		if err != nil {
			return false
		}
		return suffixtree.Equal(tree, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Inline files are larger exactly when labels outweigh the reference
// overhead — which is the paper's Table 1 effect on real data shapes.
func TestInlineLargerOnDeepTrees(t *testing.T) {
	rng := rand.New(rand.NewSource(613))
	ts := suffixtree.NewTextStore()
	for i := 0; i < 10; i++ {
		text := make([]Symbol, 120)
		for j := range text {
			text[j] = Symbol(rng.Intn(50)) // fine alphabet: long unshared labels
		}
		ts.Add(text)
	}
	tree := suffixtree.BuildNaive(ts, allSeqs(ts), false)
	dir := t.TempDir()
	ref, err := CreateEncoded(filepath.Join(dir, "r.twt"), tree, 64, LayoutReference, EncodingV1)
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	inl, err := CreateEncoded(filepath.Join(dir, "i.twt"), tree, 64, LayoutInline, EncodingV1)
	if err != nil {
		t.Fatal(err)
	}
	defer inl.Close()
	if inl.SizeBytes() <= ref.SizeBytes() {
		t.Fatalf("inline %d <= reference %d on long-label tree", inl.SizeBytes(), ref.SizeBytes())
	}
	// Counters must agree across layouts.
	if inl.NumNodes() != ref.NumNodes() || inl.NumLeaves() != ref.NumLeaves() ||
		inl.TotalLabelSymbols() != ref.TotalLabelSymbols() {
		t.Fatal("meta counters differ between layouts")
	}
}
