package disktree

import (
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"twsearch/internal/suffixtree"
)

// checkHulls re-derives every subtree depth profile from the file itself
// and fails if any persisted child entry disagrees — the soundness
// invariant the search engine's envelope tier relies on (segment s of a
// stored profile must cover exactly the non-terminator symbols at relative
// depths s*HullSegLen..(s+1)*HullSegLen-1 under its child, edge labels
// included, and must absorb nothing past the horizon; the overall
// MinSym/MaxSym hull must be the segments' union).
func checkHulls(t *testing.T, f *File, ts *suffixtree.TextStore) {
	t.Helper()
	// gather recomputes, straight from the definition and independently of
	// the writer's prependLabel aggregation, the per-depth hull of every
	// non-terminator symbol at relative depths 0..HullHorizon-1 in the
	// subtree at p (p's own edge label included, its first symbol sitting
	// at relative depth depth).
	var gather func(p Ptr, depth int32, acc *[HullHorizon]symHull)
	gather = func(p Ptr, depth int32, acc *[HullHorizon]symHull) {
		var n Node
		if err := f.ReadNodeInto(p, &n); err != nil {
			t.Fatalf("ReadNodeInto(%d): %v", p, err)
		}
		kids := append([]ChildRef(nil), n.Children...)
		label := append([]Symbol(nil), n.Label...)
		seq, start, llen := n.LabelSeq, n.LabelStart, n.LabelLen

		for i := int32(0); i < llen && depth+i < HullHorizon; i++ {
			if len(label) > 0 {
				acc[depth+i] = acc[depth+i].add(label[i])
			} else {
				acc[depth+i] = acc[depth+i].add(ts.Sym(int(seq), int(start+i)))
			}
		}
		if depth+llen < HullHorizon {
			for _, c := range kids {
				gather(c.Ptr, depth+llen, acc)
			}
		}
	}
	var walk func(p Ptr)
	walk = func(p Ptr) {
		var n Node
		if err := f.ReadNodeInto(p, &n); err != nil {
			t.Fatalf("ReadNodeInto(%d): %v", p, err)
		}
		for i, c := range n.Children {
			h := n.Hulls[i]
			var acc [HullHorizon]symHull
			for i := range acc {
				acc[i] = emptyHull
			}
			gather(c.Ptr, 0, &acc)
			all := emptyHull
			for s := 0; s < HullSegs; s++ {
				want := emptyHull
				for k := s * HullSegLen; k < (s+1)*HullSegLen; k++ {
					want = want.union(acc[k])
				}
				all = all.union(want)
				if h.Seg[s].Lo != want.lo || h.Seg[s].Hi != want.hi {
					t.Fatalf("child %d of node %d: stored segment %d [%d,%d], recomputed [%d,%d]",
						c.Sym, p, s, h.Seg[s].Lo, h.Seg[s].Hi, want.lo, want.hi)
				}
			}
			if h.MinSym != all.lo || h.MaxSym != all.hi {
				t.Fatalf("child %d of node %d: stored hull [%d,%d], recomputed [%d,%d]",
					c.Sym, p, h.MinSym, h.MaxSym, all.lo, all.hi)
			}
			walk(c.Ptr)
		}
	}
	walk(f.Root())
}

// TestEncodingV3RoundTrip: Create→Load is the identity in both layouts under
// v3, the persisted hulls are sound, and the file survives a reopen through
// a tiny pool.
func TestEncodingV3RoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(271))
	ts := randomTexts(rng, 6, 40, 3)
	tree := suffixtree.BuildMerged(ts, allSeqs(ts), false)
	for _, layout := range []Layout{LayoutReference, LayoutInline} {
		path := filepath.Join(t.TempDir(), "v3.twt")
		f, err := CreateEncoded(path, tree, 64, layout, EncodingV3)
		if err != nil {
			t.Fatalf("%s: CreateEncoded: %v", layout, err)
		}
		if f.Encoding() != EncodingV3 {
			t.Errorf("%s: Encoding() = %s, want v3", layout, f.Encoding())
		}
		got, err := f.Load(ts)
		if err != nil {
			t.Fatalf("%s: Load: %v", layout, err)
		}
		if !suffixtree.Equal(tree, got) {
			t.Fatalf("%s: v3 tree differs from original", layout)
		}
		checkHulls(t, f, ts)
		f.Close()

		f2, err := Open(path, 2, true)
		if err != nil {
			t.Fatalf("%s: Open: %v", layout, err)
		}
		if f2.Encoding() != EncodingV3 {
			t.Errorf("%s: reopened Encoding() = %s, want v3", layout, f2.Encoding())
		}
		if _, err := f2.Validate(ts); err != nil {
			t.Fatalf("%s: Validate: %v", layout, err)
		}
		checkHulls(t, f2, ts)
		f2.Close()
	}
}

// TestRewriteV3: migrating v2→v3 aggregates sound hulls without touching the
// logical tree; migrating v3→v2 drops them and lands byte-identical to a
// directly-created v2 file; and the reference-layout v3 migration refuses a
// nil text store instead of silently persisting empty hulls.
func TestRewriteV3(t *testing.T) {
	rng := rand.New(rand.NewSource(283))
	for _, layout := range []Layout{LayoutReference, LayoutInline} {
		ts := randomTexts(rng, 8, 40, 3)
		tree := suffixtree.BuildMerged(ts, allSeqs(ts), false)
		dir := t.TempDir()
		v2Path := filepath.Join(dir, "v2.twt")
		f, err := CreateEncoded(v2Path, tree, 32, layout, EncodingV2)
		if err != nil {
			t.Fatal(err)
		}
		f.Close()

		if layout == LayoutReference {
			if _, err := Rewrite(v2Path, filepath.Join(dir, "nil.twt"), 32, EncodingV3, nil); err == nil {
				t.Fatal("reference-layout rewrite to v3 accepted a nil store")
			}
		}

		v3Path := filepath.Join(dir, "v3.twt")
		rw, err := Rewrite(v2Path, v3Path, 32, EncodingV3, ts)
		if err != nil {
			t.Fatalf("%s: Rewrite to v3: %v", layout, err)
		}
		if rw.Encoding() != EncodingV3 {
			t.Errorf("%s: rewritten Encoding() = %s, want v3", layout, rw.Encoding())
		}
		got, err := rw.Load(ts)
		if err != nil {
			t.Fatal(err)
		}
		if !suffixtree.Equal(tree, got) {
			t.Fatalf("%s: v2→v3 rewrite changed the tree", layout)
		}
		if _, err := rw.Validate(ts); err != nil {
			t.Fatalf("%s: Validate after rewrite: %v", layout, err)
		}
		checkHulls(t, rw, ts)
		rw.Close()

		// Dropping the hulls again restores the exact v2 bytes.
		backPath := filepath.Join(dir, "back.twt")
		back, err := Rewrite(v3Path, backPath, 32, EncodingV2, nil)
		if err != nil {
			t.Fatalf("%s: Rewrite back to v2: %v", layout, err)
		}
		back.Close()
		origRaw, err := os.ReadFile(v2Path)
		if err != nil {
			t.Fatal(err)
		}
		backRaw, err := os.ReadFile(backPath)
		if err != nil {
			t.Fatal(err)
		}
		if string(origRaw) != string(backRaw) {
			t.Fatalf("%s: v2→v3→v2 round trip is not byte-identical", layout)
		}
	}
}

// FuzzNodeCodecV3: decode∘encode is the identity for arbitrary nodes —
// including arbitrary (even inverted or negative) segment hull pairs,
// which the signed span varints must carry exactly; the decoder re-derives
// the overall MinSym/MaxSym as the segments' union, so the expectation
// does the same — every strict prefix of the record asks for more bytes,
// and v3 bytes fed to the v2/v1 decoders (a version-confused reader)
// terminate without panicking.
func FuzzNodeCodecV3(f *testing.F) {
	f.Add([]byte{0}, false, false)
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, true, false)
	f.Add([]byte{0xFF, 0x80, 0x00, 0x7F}, false, true)
	f.Add([]byte{9, 9, 9, 9, 200, 200, 1}, true, true)
	f.Fuzz(func(t *testing.T, data []byte, leaf, inline bool) {
		checkCodec(t, data, leaf, inline, EncodingV3)
	})
}
