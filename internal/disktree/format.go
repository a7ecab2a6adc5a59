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
	"slices"

	"twsearch/internal/suffixtree"
)

// Symbol aliases the tree symbol type.
type Symbol = suffixtree.Symbol

// Ptr is the absolute byte offset of a node record inside the tree file.
// Offsets start at storage.PageSize (page 0 is the meta page).
type Ptr uint64

// NilPtr is the absent node reference.
const NilPtr Ptr = 0

// Layout names how edge labels are stored on disk. It has one value — the
// layout that copied the label symbols into each record (the paper's storage
// model; cmd/benchtables derives its size for Table 1) is retired — and remains as
// the parameter CreateEncoded's callers pass.
type Layout uint8

// LayoutReference stores labels as (seq, start, len) references into the
// sequence store.
const LayoutReference Layout = 0

// Encoding selects how node records are serialized.
type Encoding uint8

const (
	// EncodingV1 is the original fixed-width little-endian record format.
	EncodingV1 Encoding = 1
	// EncodingV2 is the compact format — what a zero Encoding value builds:
	// uvarint fields, the leaf bit folded into the first, and a child table
	// of offsets relative to the record and to each other. Children are
	// written before parents at increasing offsets, so these are small
	// positive numbers that take a byte or two instead of eight.
	EncodingV2 Encoding = 2
)

func (e Encoding) String() string {
	if e == EncodingV2 {
		return "v2"
	}
	return "v1"
}

// ParseEncoding reads an encoding name from a flag ("" means v1, the
// encoding scalar indexes are built in).
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
// encoding or label layout this build does not read — the first layout of
// the compact record, format v3 (per-child subtree hulls) and the inline
// label layout are retired, and nothing else was ever written. Nothing
// migrates such a file: rebuild the index from the data.
var ErrUnsupportedEncoding = errors.New("disktree: unsupported record encoding")

// Node record layout, encoding v1 (little endian, fixed width):
//
//	labelSeq   uint32   sequence the edge label references (a leaf's: the suffix owner)
//	labelStart uint32   first symbol position (position len(text) = terminator)
//	labelLen   uint32   label length
//	flags      uint8    bit0: leaf
//	leaf:      pos uint32, runLen uint32
//	internal:  childCount uint32, childCount × { sym int32, ptr uint64 }
//
// Encoding v2, the compact record, is a chain of uvarints, each field
// written as the uint32 (a pointer: the uint64) it is, so a field no real
// record makes negative costs no sign bit:
//
//	head       labelSeq<<1 | leaf
//	leaf:      pos, labelStart−pos (the parent's depth), labelLen,
//	           runLen (in a sparse tree only: no dense search reads it)
//	internal:  labelStart, labelLen, childCount, then the child table
//
// The child table is the entries in symbol order. The first stores its
// symbol zigzag-coded (a terminator is negative) and its pointer as the
// record's own offset minus the child's; each later entry stores its
// symbol and pointer as deltas from the entry before it. Children are
// written before their parent, in symbol order, so every one of these
// numbers is positive and small in a real file, and the arithmetic wraps,
// so any Node round-trips. Any float payloads a future record grows must
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

// Node is a decoded node record. The edge label is symbols [LabelStart,
// LabelStart+LabelLen) of sequence LabelSeq in the text store; a leaf's
// LabelSeq is also the sequence that owns its suffix.
type Node struct {
	LabelSeq   int32
	LabelStart int32
	LabelLen   int32
	Leaf       bool
	Pos        int32 // leaf only: suffix start position
	RunLen     int32 // sparse tree's leaf only: equal-symbol run length at Pos
	Children   []ChildRef

	// rd serves File.ReadNodeInto's one-shot reads, kept on the node so a
	// reused scratch node keeps its page-crossing scratch. It holds a
	// borrowed page view only for the duration of one decode.
	rd Reader
}

// encodeNode appends the record of n, written at offset at of a file of the
// given encoding and sparseness, to buf, returning the extended slice.
func encodeNode(buf []byte, n *Node, enc Encoding, at Ptr, sparse bool) []byte {
	if enc == EncodingV2 {
		return encodeNodeCompact(buf, n, at, sparse)
	}
	return encodeNodeV1(buf, n)
}

// maxRecordSize bounds the bytes encodeNode appends for a node with the
// given number of children, in either encoding: v1's header, flags and count
// are 17 bytes and an entry 12; v2's four or five uvarints of 33 bits at
// most are at most 25 and an entry's two at most 15.
func maxRecordSize(children int) int { return 32 + 16*children }

// encodeNodeV1 is the fixed-width little-endian record encoder.
func encodeNodeV1(buf []byte, n *Node) []byte {
	size := 13 + leafBodySize
	if !n.Leaf {
		size = 13 + 4 + childEntrySize*len(n.Children)
	}
	at := len(buf)
	buf = slices.Grow(buf, size)[:at+size]
	rec := buf[at:]
	binary.LittleEndian.PutUint32(rec[0:], uint32(n.LabelSeq))
	binary.LittleEndian.PutUint32(rec[4:], uint32(n.LabelStart))
	binary.LittleEndian.PutUint32(rec[8:], uint32(n.LabelLen))
	if n.Leaf {
		rec[12] = flagLeaf
		binary.LittleEndian.PutUint32(rec[13:], uint32(n.Pos))
		binary.LittleEndian.PutUint32(rec[17:], uint32(n.RunLen))
		return buf
	}
	rec[12] = 0
	binary.LittleEndian.PutUint32(rec[13:], uint32(len(n.Children)))
	rec = rec[17:]
	for i, c := range n.Children {
		ent := rec[i*childEntrySize : (i+1)*childEntrySize]
		binary.LittleEndian.PutUint32(ent[0:], uint32(c.Sym))
		binary.LittleEndian.PutUint64(ent[4:], uint64(c.Ptr))
	}
	return buf
}

// encodeNodeCompact is the v2 record encoder for a record written at
// offset at of a sparse or a dense tree. Like encodeNodeV1 it grows buf
// once, by the most the record can take, and writes the fields in place.
// Differences are taken with wrapping arithmetic, so the encode∘decode
// round trip is the identity for any Node at any offset, not just
// well-formed trees, but for a dense tree's RunLen, which is not stored
// (FuzzNodeCodecV2 pins this).
func encodeNodeCompact(buf []byte, n *Node, at Ptr, sparse bool) []byte {
	from := len(buf)
	buf = slices.Grow(buf, maxRecordSize(len(n.Children)))
	rec := buf[from:cap(buf)]
	if n.Leaf {
		k := putUvarint(rec, 0, uint64(uint32(n.LabelSeq))<<1|1)
		k = putUvarint(rec, k, uint64(uint32(n.Pos)))
		k = putUvarint(rec, k, uint64(uint32(n.LabelStart-n.Pos)))
		k = putUvarint(rec, k, uint64(uint32(n.LabelLen)))
		if sparse {
			k = putUvarint(rec, k, uint64(uint32(n.RunLen)))
		}
		return buf[:from+k]
	}
	k := putUvarint(rec, 0, uint64(uint32(n.LabelSeq))<<1)
	k = putUvarint(rec, k, uint64(uint32(n.LabelStart)))
	k = putUvarint(rec, k, uint64(uint32(n.LabelLen)))
	k = putUvarint(rec, k, uint64(len(n.Children)))
	for i, c := range n.Children {
		if i == 0 {
			k = putUvarint(rec, k, uint64(int64(c.Sym)<<1)^uint64(int64(c.Sym)>>63))
			k = putUvarint(rec, k, uint64(at-c.Ptr))
			continue
		}
		prev := n.Children[i-1]
		k = putUvarint(rec, k, uint64(uint32(c.Sym-prev.Sym)))
		k = putUvarint(rec, k, uint64(c.Ptr-prev.Ptr))
	}
	return buf[:from+k]
}

// putUvarint writes u at rec[k:] and returns the offset after it: a byte
// inline, longer values through binary.PutUvarint.
func putUvarint(rec []byte, k int, u uint64) int {
	if u < 0x80 {
		rec[k] = byte(u)
		return k + 1
	}
	return k + binary.PutUvarint(rec[k:], u)
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
	// enc is the record encoding. v1 files carry the original 46-byte meta
	// blob with no encoding byte (so pre-v2 readers and the frozen v1
	// format goldens are untouched); v2 files append metaCompact.
	enc Encoding
}

// metaBaseSize is the original (v1) meta blob size; v2 blobs are one byte
// longer, carrying the record layout's version byte at the end.
const metaBaseSize = len(metaMagic) + 8 + 8 + 8 + 8 + 1 + 4 + 1

// metaCompact is the version byte that ends the meta blob of a file of v2
// records in today's layout. Each compact layout ever written has a byte of
// its own, so no reader takes one for another: 2 named the first (zigzag
// fields, a flags byte, an absolute first child offset) and 3 the retired
// format with per-child subtree hulls, and both are refused.
const metaCompact = 4

// metaLayoutByte is where the meta blob names the label layout: left at
// LayoutReference (0) in every file this build writes, 1 in a file written
// with the retired inline layout.
const metaLayoutByte = 45

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
	if m.enc > EncodingV1 {
		buf[metaBaseSize] = metaCompact
	}
	return buf
}

func decodeMeta(buf []byte) (meta, error) {
	if (len(buf) != metaBaseSize && len(buf) != metaBaseSize+1) || string(buf[:8]) != metaMagic {
		return meta{}, fmt.Errorf("disktree: bad meta blob (%d bytes)", len(buf))
	}
	enc := EncodingV1
	if len(buf) == metaBaseSize+1 {
		if v := buf[metaBaseSize]; v != metaCompact {
			return meta{}, fmt.Errorf("disktree: tree file has record encoding version %d: %w; rebuild the index", v, ErrUnsupportedEncoding)
		}
		enc = EncodingV2
	}
	if buf[metaLayoutByte] != byte(LayoutReference) {
		return meta{}, fmt.Errorf("disktree: tree file has label layout %d: %w: retired inline label layout; rebuild the index", buf[metaLayoutByte], ErrUnsupportedEncoding)
	}
	return meta{
		root:         Ptr(binary.LittleEndian.Uint64(buf[8:])),
		nodes:        binary.LittleEndian.Uint64(buf[16:]),
		leaves:       binary.LittleEndian.Uint64(buf[24:]),
		labelSyms:    binary.LittleEndian.Uint64(buf[32:]),
		sparse:       buf[40] == 1,
		minSuffixLen: binary.LittleEndian.Uint32(buf[41:]),
		enc:          enc,
	}, nil
}
