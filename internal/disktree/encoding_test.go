package disktree

import (
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"twsearch/internal/storage"
	"twsearch/internal/suffixtree"
)

// TestEncodingV2RoundTrip: Create→Load is the identity in both layouts under
// the compact encoding, and the reopened file reports v2.
func TestEncodingV2RoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(241))
	ts := randomTexts(rng, 5, 40, 3)
	tree := suffixtree.BuildMerged(ts, allSeqs(ts), false)
	for _, layout := range []Layout{LayoutReference, LayoutInline} {
		path := filepath.Join(t.TempDir(), "v2.twt")
		f, err := CreateEncoded(path, tree, 64, layout, EncodingV2)
		if err != nil {
			t.Fatalf("%s: CreateEncoded: %v", layout, err)
		}
		if f.Encoding() != EncodingV2 {
			t.Errorf("%s: Encoding() = %s, want v2", layout, f.Encoding())
		}
		got, err := f.Load(ts)
		if err != nil {
			t.Fatalf("%s: Load: %v", layout, err)
		}
		if !suffixtree.Equal(tree, got) {
			t.Fatalf("%s: v2 tree differs from original", layout)
		}
		f.Close()

		f2, err := Open(path, 2, true)
		if err != nil {
			t.Fatalf("%s: Open: %v", layout, err)
		}
		if f2.Encoding() != EncodingV2 {
			t.Errorf("%s: reopened Encoding() = %s, want v2", layout, f2.Encoding())
		}
		got2, err := f2.Load(ts)
		if err != nil {
			t.Fatalf("%s: Load after reopen: %v", layout, err)
		}
		if !suffixtree.Equal(tree, got2) {
			t.Fatalf("%s: v2 tree differs after reopen through a 2-page pool", layout)
		}
		if _, err := f2.Validate(ts); err != nil {
			t.Fatalf("%s: Validate: %v", layout, err)
		}
		f2.Close()
	}
}

// TestEncodingV2Smaller: the varint records must be measurably smaller than
// the fixed-width ones on a real tree — the point of the format.
func TestEncodingV2Smaller(t *testing.T) {
	rng := rand.New(rand.NewSource(251))
	ts := randomTexts(rng, 20, 60, 4)
	tree := suffixtree.BuildMerged(ts, allSeqs(ts), false)
	dir := t.TempDir()
	v1, err := CreateEncoded(filepath.Join(dir, "v1.twt"), tree, 64, LayoutReference, EncodingV1)
	if err != nil {
		t.Fatal(err)
	}
	defer v1.Close()
	v2, err := CreateEncoded(filepath.Join(dir, "v2.twt"), tree, 64, LayoutReference, EncodingV2)
	if err != nil {
		t.Fatal(err)
	}
	defer v2.Close()
	if v2.SizeBytes() >= v1.SizeBytes() {
		t.Fatalf("v2 file (%d bytes) not smaller than v1 (%d bytes)", v2.SizeBytes(), v1.SizeBytes())
	}
}

// TestRewrite: re-encoding a file in place of its tree is lossless in both
// directions, and v1→v2 shrinks the file.
func TestRewrite(t *testing.T) {
	rng := rand.New(rand.NewSource(263))
	for _, layout := range []Layout{LayoutReference, LayoutInline} {
		ts := randomTexts(rng, 8, 40, 3)
		tree := suffixtree.BuildMerged(ts, allSeqs(ts), false)
		dir := t.TempDir()
		v1Path := filepath.Join(dir, "v1.twt")
		f, err := CreateEncoded(v1Path, tree, 32, layout, EncodingV1)
		if err != nil {
			t.Fatal(err)
		}
		v1Size := f.SizeBytes()
		f.Close()

		v2Path := filepath.Join(dir, "v2.twt")
		rw, err := Rewrite(v1Path, v2Path, 32, EncodingV2, nil)
		if err != nil {
			t.Fatalf("%s: Rewrite to v2: %v", layout, err)
		}
		if rw.Encoding() != EncodingV2 {
			t.Errorf("%s: rewritten Encoding() = %s, want v2", layout, rw.Encoding())
		}
		got, err := rw.Load(ts)
		if err != nil {
			t.Fatal(err)
		}
		if !suffixtree.Equal(tree, got) {
			t.Fatalf("%s: v1→v2 rewrite changed the tree", layout)
		}
		if _, err := rw.Validate(ts); err != nil {
			t.Fatalf("%s: Validate after rewrite: %v", layout, err)
		}
		if layout == LayoutReference && rw.SizeBytes() >= v1Size {
			t.Errorf("%s: rewrite did not shrink: %d → %d bytes", layout, v1Size, rw.SizeBytes())
		}
		rw.Close()

		// And back: v2 → v1 restores a byte-identical v1 file.
		backPath := filepath.Join(dir, "back.twt")
		back, err := Rewrite(v2Path, backPath, 32, EncodingV1, nil)
		if err != nil {
			t.Fatalf("%s: Rewrite back to v1: %v", layout, err)
		}
		back.Close()
		origRaw, err := os.ReadFile(v1Path)
		if err != nil {
			t.Fatal(err)
		}
		backRaw, err := os.ReadFile(backPath)
		if err != nil {
			t.Fatal(err)
		}
		if string(origRaw) != string(backRaw) {
			t.Fatalf("%s: v1→v2→v1 round trip is not byte-identical", layout)
		}
	}
}

// TestDecodeMetaRejectsUnknownEncoding: a meta blob carrying an encoding
// byte outside the known range must be refused — how a pre-v2 reader's
// "bad meta blob" rejection looks from this side.
func TestDecodeMetaRejectsUnknownEncoding(t *testing.T) {
	blob := encodeMeta(meta{root: Ptr(storage.PageSize), layout: LayoutReference, enc: EncodingV2})
	if len(blob) != metaBaseSize+1 {
		t.Fatalf("v2 meta blob is %d bytes, want %d", len(blob), metaBaseSize+1)
	}
	if _, err := decodeMeta(blob); err != nil {
		t.Fatalf("valid v2 blob rejected: %v", err)
	}
	for _, bad := range []byte{0, 4, 0xFF} {
		blob[metaBaseSize] = bad
		if _, err := decodeMeta(blob); err == nil {
			t.Fatalf("encoding byte %d accepted", bad)
		}
	}
	// And the legacy 46-byte blob still decodes as v1.
	m, err := decodeMeta(blob[:metaBaseSize])
	if err != nil {
		t.Fatalf("legacy blob rejected: %v", err)
	}
	if m.enc != EncodingV1 {
		t.Fatalf("legacy blob decoded as %s, want v1", m.enc)
	}
}

// writeRecordFile lays raw record bytes into a fresh in-memory page file
// starting at page 1 and wraps it in a File with the given layout/encoding,
// so decode paths can be driven with hand-built (or fuzz-built) bytes.
func writeRecordFile(t *testing.T, raw []byte, layout Layout, enc Encoding) *File {
	t.Helper()
	pf, err := storage.CreateMemFile()
	if err != nil {
		t.Fatal(err)
	}
	for off := 0; off < len(raw); off += storage.PageSize {
		id, err := pf.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		page := make([]byte, storage.PageSize)
		copy(page, raw[off:])
		if err := pf.WritePage(id, page); err != nil {
			t.Fatal(err)
		}
	}
	if len(raw) == 0 {
		if _, err := pf.Alloc(); err != nil {
			t.Fatal(err)
		}
	}
	pool, err := storage.NewPool(pf, 4)
	if err != nil {
		t.Fatal(err)
	}
	f := &File{pf: pf, src: pool, meta: meta{root: Ptr(storage.PageSize), layout: layout, enc: enc}}
	t.Cleanup(func() { f.Close() })
	return f
}

// FuzzNodeCodecV2: decode∘encode is the identity for arbitrary nodes in the
// compact encoding, every strict prefix of the record asks for more bytes,
// and feeding v2 bytes to the v1 decoder (the cross-decode a
// version-confused reader would attempt) terminates without panicking.
func FuzzNodeCodecV2(f *testing.F) {
	f.Add([]byte{0}, false, false)
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, true, false)
	f.Add([]byte{0xFF, 0x80, 0x00, 0x7F}, false, true)
	f.Add([]byte{9, 9, 9, 9, 200, 200, 1}, true, true)
	f.Fuzz(func(t *testing.T, data []byte, leaf, inline bool) {
		checkCodec(t, data, leaf, inline, EncodingV2)
	})
}

// checkCodec derives a node deterministically from the fuzz bytes, encodes
// it and drives the slice decoders directly: the whole record (followed by
// bytes that are not part of it) must decode to the node, every strict
// prefix must come back errShort — never a node, never a verdict on a
// record that more bytes would complete — and the older decoders over the
// same bytes must terminate with an error or garbage, never panic or hang.
func checkCodec(t *testing.T, data []byte, leaf, inline bool, enc Encoding) {
	if len(data) == 0 {
		data = []byte{0}
	}
	next := func(i int) int32 {
		var v int32
		for k := 0; k < 4; k++ {
			v = v<<8 | int32(data[(i*4+k)%len(data)])
		}
		return v
	}
	layout := LayoutReference
	if inline {
		layout = LayoutInline
	}
	in := Node{LabelSeq: next(0), LabelStart: next(1), LabelLen: next(2), Leaf: leaf}
	if inline {
		in.Label = make([]Symbol, uint32(next(3))%200)
		for i := range in.Label {
			in.Label[i] = Symbol(next(4 + i))
		}
	}
	if leaf {
		in.Pos = next(5)
		in.RunLen = next(6)
	} else {
		in.Children = make([]ChildRef, uint32(next(7))%200)
		for i := range in.Children {
			in.Children[i] = ChildRef{Sym: Symbol(next(8 + i)), Ptr: Ptr(uint64(uint32(next(9 + i))))}
		}
		if enc == EncodingV3 {
			in.Hulls = make([]Hull, len(in.Children))
			for i := range in.Hulls {
				h := &in.Hulls[i]
				for s := range h.Seg {
					h.Seg[s] = HullRange{
						Lo: Symbol(next(10 + 2*(i*HullSegs+s))),
						Hi: Symbol(next(11 + 2*(i*HullSegs+s))),
					}
				}
				h.setOverall()
			}
		}
	}

	raw := encodeNode(nil, &in, layout, enc)
	f := &File{meta: meta{layout: layout, enc: enc}}
	var got Node
	if err := f.decode(append(raw[:len(raw):len(raw)], 0xAB, 0xCD), &got, 0); err != nil {
		t.Fatalf("decoding our own encoding: %v", err)
	}
	// What the decoder is specified to produce for this input.
	want := in
	if inline {
		want.LabelLen = int32(len(in.Label))
		want.LabelStart = -1
		if !leaf {
			want.LabelSeq = -1
		}
	}
	if !nodesEqual(&want, &got) {
		t.Fatalf("round trip mismatch:\n in: %+v\nout: %+v", want, got)
	}
	for cut := 0; cut < len(raw); cut++ {
		if err := f.decode(raw[:cut:cut], &got, 0); err != errShort {
			t.Fatalf("the first %d of %d bytes decoded with error %v, want errShort", cut, len(raw), err)
		}
	}
	for older := enc - 1; older >= EncodingV1; older-- {
		fx := &File{meta: meta{layout: layout, enc: older}}
		var junk Node
		_ = fx.decode(raw, &junk, 0)
	}
}

func nodesEqual(a, b *Node) bool {
	if a.LabelSeq != b.LabelSeq || a.LabelStart != b.LabelStart || a.LabelLen != b.LabelLen ||
		a.Leaf != b.Leaf || a.Pos != b.Pos || a.RunLen != b.RunLen {
		return false
	}
	return slices.Equal(a.Label, b.Label) && slices.Equal(a.Children, b.Children) && slices.Equal(a.Hulls, b.Hulls)
}
