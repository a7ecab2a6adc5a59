package disktree

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"twsearch/internal/storage"
	"twsearch/internal/suffixtree"
)

// TestEncodingV2RoundTrip: Create→Load is the identity under the compact
// encoding, and the reopened file reports v2.
func TestEncodingV2RoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(241))
	ts := randomTexts(rng, 5, 40, 3)
	tree := suffixtree.BuildMerged(ts, allSeqs(ts), false)
	path := filepath.Join(t.TempDir(), "v2.twt")
	f, err := CreateEncoded(path, tree, 64, LayoutReference, EncodingV2)
	if err != nil {
		t.Fatalf("CreateEncoded: %v", err)
	}
	if f.Encoding() != EncodingV2 {
		t.Errorf("Encoding() = %s, want v2", f.Encoding())
	}
	got, err := f.Load(ts)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if !suffixtree.Equal(tree, got) {
		t.Fatal("v2 tree differs from original")
	}
	f.Close()

	f2, err := Open(path, 2, true)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer f2.Close()
	if f2.Encoding() != EncodingV2 {
		t.Errorf("reopened Encoding() = %s, want v2", f2.Encoding())
	}
	got2, err := f2.Load(ts)
	if err != nil {
		t.Fatalf("Load after reopen: %v", err)
	}
	if !suffixtree.Equal(tree, got2) {
		t.Fatal("v2 tree differs after reopen through a 2-page pool")
	}
	if _, err := f2.Validate(ts); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if _, err := CreateEncoded(path, tree, 64, LayoutReference+1, EncodingV2); err == nil {
		t.Error("CreateEncoded accepted a layout other than LayoutReference")
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
	// And stay as small as they are: a field that grows a compact record
	// fails here, not in a benchmark. The ceiling is the measured size.
	_, nodes := allNodes(t, v2)
	recordBytes := 0
	for i := range nodes {
		recordBytes += len(encodeNode(nil, &nodes[i], EncodingV2))
	}
	const ceiling = 8.26 // bytes per node; 8.255 measured
	if perNode := float64(recordBytes) / float64(len(nodes)); perNode > ceiling {
		t.Fatalf("v2 records take %.3f B/node, ceiling %v", perNode, ceiling)
	}
}

// retiredVersions are meta-blob version bytes no supported encoding uses:
// 3 is the retired format v3, the others were never written.
var retiredVersions = []byte{3, 0, 4, 0xFF}

// TestDecodeMetaRejectsUnknownEncoding: a meta blob carrying an encoding
// byte outside the supported set is refused with the typed error, naming
// the version found and the remedy.
func TestDecodeMetaRejectsUnknownEncoding(t *testing.T) {
	blob := encodeMeta(meta{root: Ptr(storage.PageSize), enc: EncodingV2})
	if len(blob) != metaBaseSize+1 {
		t.Fatalf("v2 meta blob is %d bytes, want %d", len(blob), metaBaseSize+1)
	}
	if _, err := decodeMeta(blob); err != nil {
		t.Fatalf("valid v2 blob rejected: %v", err)
	}
	for _, bad := range retiredVersions {
		blob[metaBaseSize] = bad
		_, err := decodeMeta(blob)
		if !errors.Is(err, ErrUnsupportedEncoding) {
			t.Fatalf("encoding byte %d: %v, want ErrUnsupportedEncoding", bad, err)
		}
		if msg := err.Error(); !strings.Contains(msg, fmt.Sprintf("version %d", bad)) || !strings.Contains(msg, "rebuild the index") {
			t.Errorf("encoding byte %d: error %q names neither the version nor the remedy", bad, msg)
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
	// A layout byte other than 0 was written by the retired inline layout (1)
	// or by nothing at all: refused in both blob sizes, never read as
	// reference records.
	blob[metaBaseSize] = byte(EncodingV2)
	for _, bad := range []byte{1, 2, 0xFF} {
		blob[metaLayoutByte] = bad
		for _, b := range [][]byte{blob, blob[:metaBaseSize]} {
			_, err := decodeMeta(b)
			if !errors.Is(err, ErrUnsupportedEncoding) {
				t.Fatalf("layout byte %d: %v, want ErrUnsupportedEncoding", bad, err)
			}
			if msg := err.Error(); !strings.Contains(msg, "retired inline label layout; rebuild the index") {
				t.Errorf("layout byte %d: error %q names neither the layout nor the remedy", bad, msg)
			}
		}
	}
}

// TestOpenRefusesRetiredEncodings: a tree file whose meta page names a
// retired or unknown record encoding — or the retired inline label layout —
// is refused by every way of opening it with the typed error, and the
// refusal holds nothing open — the file can be replaced and opened again.
func TestOpenRefusesRetiredEncodings(t *testing.T) {
	rng := rand.New(rand.NewSource(271))
	ts := randomTexts(rng, 5, 40, 3)
	tree := suffixtree.BuildMerged(ts, allSeqs(ts), false)
	path := filepath.Join(t.TempDir(), "tree.twt")
	create := func() {
		t.Helper()
		f, err := CreateEncoded(path, tree, 8, LayoutReference, EncodingV2)
		if err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
	opens := map[string]func() (*File, error){
		"Open":             func() (*File, error) { return Open(path, 8, true) },
		"OpenBackend/pool": func() (*File, error) { return OpenBackend(path, 8, true, storage.BackendPool) },
		"OpenBackend/mmap": func() (*File, error) { return OpenBackend(path, 8, true, storage.BackendMmap) },
	}
	// Each patch is a meta-blob offset and the byte to put there: the
	// inline layout byte, then the retired versions in the encoding byte.
	type patch struct {
		off int
		b   byte
	}
	patches := []patch{{metaLayoutByte, 1}}
	for _, version := range retiredVersions {
		patches = append(patches, patch{metaBaseSize, version})
	}
	for _, pt := range patches {
		what := fmt.Sprintf("meta[%d]=%d", pt.off, pt.b)
		create()
		pf, err := storage.OpenFile(path, false)
		if err != nil {
			t.Fatal(err)
		}
		blob, err := pf.Meta()
		if err != nil {
			t.Fatal(err)
		}
		blob[pt.off] = pt.b
		if err := pf.SetMeta(blob); err != nil {
			t.Fatal(err)
		}
		if err := pf.Close(); err != nil {
			t.Fatal(err)
		}
		for name, open := range opens {
			f, err := open()
			if !errors.Is(err, ErrUnsupportedEncoding) {
				if f != nil {
					f.Close()
				}
				t.Fatalf("%s, %s: %v, want ErrUnsupportedEncoding", what, name, err)
			}
		}
		create() // replaces the refused file
		for name, open := range opens {
			f, err := open()
			if err != nil {
				t.Fatalf("%s, %s after the file was replaced: %v", what, name, err)
			}
			if _, err := f.Validate(ts); err != nil {
				t.Errorf("%s, %s after the file was replaced: Validate: %v", what, name, err)
			}
			if pinned := f.PinnedPages(); pinned != 0 {
				t.Errorf("%s, %s: %d pages pinned", what, name, pinned)
			}
			f.Close()
		}
	}
}

// writeRecordFile lays raw record bytes into a fresh in-memory page file
// starting at page 1 and wraps it in a File with the given encoding, so
// decode paths can be driven with hand-built (or fuzz-built) bytes.
func writeRecordFile(t *testing.T, raw []byte, enc Encoding) *File {
	t.Helper()
	pf, err := storage.CreateMemFile()
	if err != nil {
		t.Fatal(err)
	}
	pages := make([]byte, max(1, (len(raw)+storage.PageSize-1)/storage.PageSize)*storage.PageSize)
	copy(pages, raw)
	if _, err := pf.AppendPages(pages); err != nil {
		t.Fatal(err)
	}
	pool, err := storage.NewPool(pf, 4)
	if err != nil {
		t.Fatal(err)
	}
	f := &File{pf: pf, src: pool, meta: meta{root: Ptr(storage.PageSize), enc: enc}}
	t.Cleanup(func() { f.Close() })
	return f
}

// FuzzNodeCodecV2: decode∘encode is the identity for arbitrary nodes in the
// compact encoding, every strict prefix of the record asks for more bytes,
// feeding v2 bytes to the v1 decoder (the cross-decode a version-confused
// reader would attempt) terminates without panicking, and on arbitrary and
// corrupted bytes decodeCompact does what decodeCompactReference does.
func FuzzNodeCodecV2(f *testing.F) {
	f.Add([]byte{0}, false)
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, true)
	f.Add([]byte{0xFF, 0x80, 0x00, 0x7F}, false)
	f.Add([]byte{9, 9, 9, 9, 200, 200, 1}, true)
	// Raw records for the differential arm. A 10-byte label field whose last
	// byte overflows 64 bits, and one with an 11th continuation byte:
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x02, 0, 0, 0}, false)
	f.Add([]byte{0x02, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01}, true)
	// The same in a child delta, after a one-entry internal header.
	f.Add([]byte{0, 0, 0, 0, 1, 0, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F}, false)
	// A 2-byte field split at the slice end: the label start, the child
	// count, a leaf's run length.
	f.Add([]byte{0x04, 0x96}, false)
	f.Add([]byte{0x04, 0x06, 0x02, 0, 0x83}, false)
	f.Add([]byte{0x04, 0x06, 0x02, flagLeaf, 0x90, 0x03, 0xC1}, true)
	// Three- and four-byte fields with their last byte at the top of its
	// range, which uvarintSlow reads by hand.
	f.Add([]byte{0x80, 0x80, 0x7F, 0, 0, flagLeaf, 0xFF, 0xFF, 0xFF, 0x7F, 0, 0}, true)
	// A child count at maxCount, and one past it.
	f.Add([]byte{0, 0, 0, 0, 0x80, 0x80, 0x80, 0x08, 2, 2}, false)
	f.Add([]byte{0, 0, 0, 0, 0x81, 0x80, 0x80, 0x08, 2, 2}, false)
	f.Fuzz(checkCodec)
}

// checkCodec derives a node deterministically from the fuzz bytes, encodes
// it as a v2 record and drives the slice decoders directly: the whole
// record (followed by bytes that are not part of it) must decode to the
// node, every strict prefix must come back errShort — never a node, never
// a verdict on a record that more bytes would complete — and the v1 decoder
// over v2 bytes must terminate with an error or garbage, never panic or
// hang.
func checkCodec(t *testing.T, data []byte, leaf bool) {
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
	// No node has a negative label length; the decoders refuse one.
	in := Node{LabelSeq: next(0), LabelStart: next(1), LabelLen: next(2) & math.MaxInt32, Leaf: leaf}
	if leaf {
		in.Pos = next(5)
		in.RunLen = next(6)
	} else {
		in.Children = make([]ChildRef, uint32(next(7))%200)
		for i := range in.Children {
			in.Children[i] = ChildRef{Sym: Symbol(next(8 + i)), Ptr: Ptr(uint64(uint32(next(9 + i))))}
		}
	}

	raw := encodeNode(nil, &in, EncodingV2)
	f := &File{meta: meta{enc: EncodingV2}}
	var got Node
	if err := f.decode(append(raw[:len(raw):len(raw)], 0xAB, 0xCD), &got, 0); err != nil {
		t.Fatalf("decoding our own encoding: %v", err)
	}
	if !nodesEqual(&in, &got) {
		t.Fatalf("round trip mismatch:\n in: %+v\nout: %+v", in, got)
	}
	for cut := 0; cut < len(raw); cut++ {
		if err := f.decode(raw[:cut:cut], &got, 0); err != errShort {
			t.Fatalf("the first %d of %d bytes decoded with error %v, want errShort", cut, len(raw), err)
		}
	}
	fx := &File{meta: meta{enc: EncodingV1}}
	var junk Node
	_ = fx.decode(raw, &junk, 0)

	// The fuzz bytes themselves, each of their first 64 prefixes, and the
	// record with one byte corrupted go to both compact decoders.
	for cut := 0; cut <= len(data) && cut <= 64; cut++ {
		sameAsReference(t, data[:cut:cut])
	}
	sameAsReference(t, data)
	bad := slices.Clone(raw)
	bad[int(data[0])%len(bad)] ^= data[len(data)-1] | 1
	sameAsReference(t, bad)
}

// TestDecodeCompactFailures: the raw seeds of FuzzNodeCodecV2 fail the way
// their comments say, in both compact decoders.
func TestDecodeCompactFailures(t *testing.T) {
	for _, c := range []struct {
		raw  []byte
		want string
	}{
		{[]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x02, 0, 0, 0}, errVarintOverflow.Error()},
		{[]byte{0x02, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01}, errVarintOverflow.Error()},
		{[]byte{0, 0, 0, 0, 1, 0, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F}, errVarintOverflow.Error()},
		{[]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF}, errShort.Error()},
		{[]byte{0x04, 0x96}, errShort.Error()},
		{[]byte{0x04, 0x06, 0x02, 0, 0x83}, errShort.Error()},
		{[]byte{0x04, 0x06, 0x02, flagLeaf, 0x90, 0x03, 0xC1}, errShort.Error()},
		{[]byte{0x04, 0x06, 0x02}, errShort.Error()},
		{[]byte{0, 0, 0, 0, 0x80, 0x80, 0x80, 0x08, 2, 2}, errShort.Error()},
		{[]byte{0, 0, 0, 0, 0x81, 0x80, 0x80, 0x08, 2, 2}, "disktree: implausible child count 16777217 at 7"},
		{[]byte{0, 0, 0x80, 0x80, 0x80, 0x80, 0x10}, "disktree: implausible label length 2147483648 at 7"},
		{[]byte{0, 0, 0x01}, "disktree: implausible label length 4294967295 at 7"},
	} {
		for name, decode := range map[string]func([]byte, *Node, Ptr) error{"decodeCompact": decodeCompact, "reference": decodeCompactReference} {
			var n Node
			if err := decode(c.raw, &n, 7); err == nil || err.Error() != c.want {
				t.Errorf("%s(% x) = %v, want %q", name, c.raw, err, c.want)
			}
		}
	}
}

// sameAsReference decodes b with decodeCompact and decodeCompactReference:
// they must return the same node, or the same error — errShort,
// errVarintOverflow, or the same implausible count.
func sameAsReference(t *testing.T, b []byte) {
	t.Helper()
	var got, want Node
	gotErr, wantErr := decodeCompact(b, &got, 7), decodeCompactReference(b, &want, 7)
	switch {
	case gotErr == nil && wantErr == nil:
		if !nodesEqual(&got, &want) {
			t.Fatalf("% x decodes to\n %+v, the reference to\n %+v", b, got, want)
		}
	case gotErr == nil || wantErr == nil || gotErr.Error() != wantErr.Error():
		t.Fatalf("% x: error %v, the reference's %v", b, gotErr, wantErr)
	}
}

func nodesEqual(a, b *Node) bool {
	return a.LabelSeq == b.LabelSeq && a.LabelStart == b.LabelStart && a.LabelLen == b.LabelLen &&
		a.Leaf == b.Leaf && a.Pos == b.Pos && a.RunLen == b.RunLen && slices.Equal(a.Children, b.Children)
}
