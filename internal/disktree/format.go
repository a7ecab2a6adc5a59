// Package disktree implements the disk-based suffix tree of Section 4.1:
// tree nodes serialized into a paged file and read back through an LRU
// buffer pool. Where the paper constructs the file by merging disk-resident
// trees (after Bieganski et al.), Build streams it out of the sorted list
// of suffix starts in one pass — the same tree, never held in memory and
// never rewritten.
//
// Node records live at arbitrary byte offsets (records may cross page
// boundaries), so a node with thousands of children — the root of the
// uncategorized tree ST — is representable. Children are written before
// their parent (post-order), which lets a single append pass serialize any
// tree: by the time a parent record is emitted every child offset is known.
package disktree

import (
	"encoding/binary"
	"errors"
	"fmt"

	"twsearch/internal/suffixtree"
)

// Symbol aliases the tree symbol type.
type Symbol = suffixtree.Symbol

// Ptr is the absolute byte offset of a node record inside the tree file.
// Offsets start at storage.PageSize (page 0 is the meta page).
type Ptr uint64

// NilPtr is the absent node reference.
const NilPtr Ptr = 0

// Layout selects how edge labels are stored on disk.
type Layout uint8

const (
	// LayoutReference stores labels as (seq, start, len) references into
	// the sequence store — compact, the default.
	LayoutReference Layout = 0
	// LayoutInline copies the label symbols into the node record — the
	// paper's storage model, whose sizes Table 1 reports. Inline trees are
	// self-contained for traversal but much larger when categorization is
	// fine-grained (that size growth is the paper's Table 1 story).
	LayoutInline Layout = 1
)

func (l Layout) String() string {
	if l == LayoutInline {
		return "inline"
	}
	return "reference"
}

// Encoding selects how node records are serialized. It is orthogonal to
// Layout: both layouts exist in both encodings.
type Encoding uint8

const (
	// EncodingV1 is the original fixed-width little-endian record format —
	// what a zero Encoding value means.
	EncodingV1 Encoding = 1
	// EncodingV2 is the compact format: varint counts and labels, zigzag
	// deltas for the child table's symbols and pointers. Children are
	// written before parents at increasing offsets, so the pointer deltas
	// of a real file are small positive numbers that varint-encode in a
	// byte or two instead of eight.
	EncodingV2 Encoding = 2
)

func (e Encoding) String() string {
	if e == EncodingV2 {
		return "v2"
	}
	return "v1"
}

// ParseEncoding reads an encoding name from a flag ("" means the default,
// v1).
func ParseEncoding(s string) (Encoding, error) {
	switch s {
	case "", "v1", "1":
		return EncodingV1, nil
	case "v2", "2":
		return EncodingV2, nil
	}
	return 0, fmt.Errorf("disktree: unknown encoding %q (want v1 or v2)", s)
}

// ErrUnsupportedEncoding reports a tree file whose meta page names a record
// encoding this build does not read — format v3 (per-child subtree hulls)
// is retired, and no other version was ever written. Nothing migrates such
// a file: rebuild the index from the data.
var ErrUnsupportedEncoding = errors.New("disktree: unsupported record encoding")

// Node record layout, encoding v1 (little endian, fixed width).
//
// Reference layout:
//
//	labelSeq   uint32   sequence the edge label references
//	labelStart uint32   first symbol position (position len(text) = terminator)
//	labelLen   uint32   label length
//	flags      uint8    bit0: leaf
//	leaf:      seq uint32 (suffix owner), pos uint32, runLen uint32
//	internal:  childCount uint32, childCount × { sym int32, ptr uint64 }
//
// Inline layout replaces the first 8 header bytes:
//
//	labelLen   uint32
//	label      [labelLen]int32
//	flags      uint8
//	leaf/internal tails as above (leaf additionally stores seq explicitly,
//	since there is no labelSeq to derive it from)
//
// Encoding v2 keeps the same field order but serializes integers as
// varints: signed fields (labelSeq, labelStart, labelLen, label symbols,
// leaf seq/pos/runLen) as zigzag varints, counts as uvarints, and the
// child table as delta pairs — each entry stores zigzag(sym − prevSym) and
// zigzag(ptr − prevPtr) with prev starting at zero, exploiting the sorted
// symbols and the post-order (strictly increasing) child offsets. The
// flags byte is unchanged. Any float payloads a future record grows must
// stay raw little-endian for bit-exactness; v2 compresses only integers.
const (
	leafBodySize   = 8
	childEntrySize = 12
	flagLeaf       = 1
)

// ChildRef is one entry of an internal node's child table: the first symbol
// of the child's edge label and the child's record offset. Entries are
// sorted by Sym.
type ChildRef struct {
	Sym Symbol
	Ptr Ptr
}

// Node is a decoded node record. For reference-layout files the label is
// (LabelSeq, LabelStart, LabelLen) into the text store and Label is nil;
// for inline-layout files Label holds the symbols and LabelSeq is
// meaningful only on leaves (the suffix's owning sequence).
type Node struct {
	LabelSeq   int32
	LabelStart int32
	LabelLen   int32
	Label      []Symbol // inline layout only
	Leaf       bool
	Pos        int32 // leaf only: suffix start position
	RunLen     int32 // leaf only: equal-symbol run length at Pos
	Children   []ChildRef

	// rd serves File.ReadNodeInto's one-shot reads, kept on the node so a
	// reused scratch node keeps its page-crossing scratch. It holds a
	// borrowed page view only for the duration of one decode.
	rd Reader
}

// encodeNode appends n's record bytes to buf in the given layout and
// encoding, returning the extended slice. For LayoutInline, n.Label must
// be filled.
func encodeNode(buf []byte, n *Node, layout Layout, enc Encoding) []byte {
	if enc == EncodingV2 {
		return encodeNodeCompact(buf, n, layout)
	}
	return encodeNodeV1(buf, n, layout)
}

// encodeNodeV1 is the fixed-width little-endian record encoder.
func encodeNodeV1(buf []byte, n *Node, layout Layout) []byte {
	if layout == LayoutInline {
		var l [4]byte
		binary.LittleEndian.PutUint32(l[:], uint32(len(n.Label)))
		buf = append(buf, l[:]...)
		for _, s := range n.Label {
			var sb [4]byte
			binary.LittleEndian.PutUint32(sb[:], uint32(s))
			buf = append(buf, sb[:]...)
		}
	} else {
		var hdr [12]byte
		binary.LittleEndian.PutUint32(hdr[0:], uint32(n.LabelSeq))
		binary.LittleEndian.PutUint32(hdr[4:], uint32(n.LabelStart))
		binary.LittleEndian.PutUint32(hdr[8:], uint32(n.LabelLen))
		buf = append(buf, hdr[:]...)
	}
	if n.Leaf {
		buf = append(buf, flagLeaf)
		if layout == LayoutInline {
			var sb [4]byte
			binary.LittleEndian.PutUint32(sb[:], uint32(n.LabelSeq))
			buf = append(buf, sb[:]...)
		}
		var body [leafBodySize]byte
		binary.LittleEndian.PutUint32(body[0:], uint32(n.Pos))
		binary.LittleEndian.PutUint32(body[4:], uint32(n.RunLen))
		return append(buf, body[:]...)
	}
	buf = append(buf, 0)
	var cnt [4]byte
	binary.LittleEndian.PutUint32(cnt[:], uint32(len(n.Children)))
	buf = append(buf, cnt[:]...)
	for _, c := range n.Children {
		var ent [childEntrySize]byte
		binary.LittleEndian.PutUint32(ent[0:], uint32(c.Sym))
		binary.LittleEndian.PutUint64(ent[4:], uint64(c.Ptr))
		buf = append(buf, ent[:]...)
	}
	return buf
}

// encodeNodeCompact is the v2 varint record encoder. Deltas are computed
// with wrapping uint64 arithmetic, so the encode∘decode round trip is the
// identity for any Node, not just well-formed trees (FuzzNodeCodecV2 pins
// this).
func encodeNodeCompact(buf []byte, n *Node, layout Layout) []byte {
	if layout == LayoutInline {
		buf = binary.AppendUvarint(buf, uint64(len(n.Label)))
		for _, s := range n.Label {
			buf = binary.AppendVarint(buf, int64(s))
		}
	} else {
		buf = binary.AppendVarint(buf, int64(n.LabelSeq))
		buf = binary.AppendVarint(buf, int64(n.LabelStart))
		buf = binary.AppendVarint(buf, int64(n.LabelLen))
	}
	if n.Leaf {
		buf = append(buf, flagLeaf)
		if layout == LayoutInline {
			buf = binary.AppendVarint(buf, int64(n.LabelSeq))
		}
		buf = binary.AppendVarint(buf, int64(n.Pos))
		return binary.AppendVarint(buf, int64(n.RunLen))
	}
	buf = append(buf, 0)
	buf = binary.AppendUvarint(buf, uint64(len(n.Children)))
	prevSym, prevPtr := int64(0), uint64(0)
	for _, c := range n.Children {
		buf = binary.AppendVarint(buf, int64(c.Sym)-prevSym)
		buf = binary.AppendVarint(buf, int64(uint64(c.Ptr)-prevPtr))
		prevSym, prevPtr = int64(c.Sym), uint64(c.Ptr)
	}
	return buf
}

// Meta blob layout stored in the page file's meta page.
const metaMagic = "TWDTREE1"

type meta struct {
	root   Ptr
	nodes  uint64
	leaves uint64
	// labelSyms is the total expanded edge-label length over all nodes. An
	// implementation that stored labels inline (like the paper's) would pay
	// for these symbols; we store (seq, start, len) references instead, so
	// this counter is what lets the benchmark harness report the paper's
	// storage model next to the actual file size.
	labelSyms uint64
	sparse    bool
	// minSuffixLen is the conclusion-section length filter the tree was
	// built with (0 = all suffixes stored).
	minSuffixLen uint32
	// layout selects the node record format.
	layout Layout
	// enc is the record encoding version. v1 files carry the original
	// 46-byte meta blob with no encoding byte (so pre-v2 readers and the
	// frozen v1 format goldens are untouched); v2 files append one byte.
	enc Encoding
}

// metaBaseSize is the original (v1) meta blob size; v2 blobs are one byte
// longer, carrying the encoding version at the end.
const metaBaseSize = len(metaMagic) + 8 + 8 + 8 + 8 + 1 + 4 + 1

func encodeMeta(m meta) []byte {
	size := metaBaseSize
	if m.enc > EncodingV1 {
		size++
	}
	buf := make([]byte, size)
	copy(buf, metaMagic)
	binary.LittleEndian.PutUint64(buf[8:], uint64(m.root))
	binary.LittleEndian.PutUint64(buf[16:], m.nodes)
	binary.LittleEndian.PutUint64(buf[24:], m.leaves)
	binary.LittleEndian.PutUint64(buf[32:], m.labelSyms)
	if m.sparse {
		buf[40] = 1
	}
	binary.LittleEndian.PutUint32(buf[41:], m.minSuffixLen)
	buf[45] = byte(m.layout)
	if m.enc > EncodingV1 {
		buf[metaBaseSize] = byte(m.enc)
	}
	return buf
}

func decodeMeta(buf []byte) (meta, error) {
	if (len(buf) != metaBaseSize && len(buf) != metaBaseSize+1) || string(buf[:8]) != metaMagic {
		return meta{}, fmt.Errorf("disktree: bad meta blob (%d bytes)", len(buf))
	}
	enc := EncodingV1
	if len(buf) == metaBaseSize+1 {
		enc = Encoding(buf[metaBaseSize])
		if enc != EncodingV1 && enc != EncodingV2 {
			return meta{}, fmt.Errorf("disktree: tree file has record encoding version %d: %w; rebuild the index", buf[metaBaseSize], ErrUnsupportedEncoding)
		}
	}
	if buf[45] > 1 {
		return meta{}, fmt.Errorf("disktree: unknown layout %d", buf[45])
	}
	return meta{
		root:         Ptr(binary.LittleEndian.Uint64(buf[8:])),
		nodes:        binary.LittleEndian.Uint64(buf[16:]),
		leaves:       binary.LittleEndian.Uint64(buf[24:]),
		labelSyms:    binary.LittleEndian.Uint64(buf[32:]),
		sparse:       buf[40] == 1,
		minSuffixLen: binary.LittleEndian.Uint32(buf[41:]),
		layout:       Layout(buf[45]),
		enc:          enc,
	}, nil
}
