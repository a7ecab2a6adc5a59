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
	// what every pre-v2 file holds, and what a zero Encoding value means.
	EncodingV1 Encoding = 1
	// EncodingV2 is the compact format: varint counts and labels, zigzag
	// deltas for the child table's symbols and pointers. Children are
	// written before parents at increasing offsets, so the pointer deltas
	// of a real file are small positive numbers that varint-encode in a
	// byte or two instead of eight.
	EncodingV2 Encoding = 2
	// EncodingV3 extends v2 with per-child subtree envelopes: each child
	// table entry additionally stores a segmented depth profile of the
	// child's subtree — HullSegs hulls, each bounding the non-terminator
	// symbols at HullSegLen consecutive relative depths (edge labels
	// included), covering the first HullHorizon rows below the child's
	// parent. Each segment is coded as zigzag(Lo) plus zigzag(Hi-Lo). The
	// search engine's lower-bound cascade charges each query column against
	// only the segments its warping band can reach, dismissing whole
	// subtrees before reading the child node. v1/v2 records are otherwise
	// unchanged.
	EncodingV3 Encoding = 3
)

func (e Encoding) String() string {
	switch e {
	case EncodingV3:
		return "v3"
	case EncodingV2:
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
	case "v3", "3":
		return EncodingV3, nil
	}
	return 0, fmt.Errorf("disktree: unknown encoding %q (want v1, v2 or v3)", s)
}

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

// Hull is the envelope of one child's subtree, persisted only by
// EncodingV3: a decoded v3 node carries one per child table entry in
// Node.Hulls, a v1/v2 node none, so readers gate hull use on the file's
// encoding.
type Hull struct {
	// MinSym and MaxSym bound every non-terminator symbol within the first
	// HullHorizon rows of every path in the child's subtree — the edge
	// label's leading symbols plus everything below, cut off at the
	// horizon. They are the union of Seg, derived on decode rather than
	// stored. MaxSym < MinSym is the explicit empty hull (a subtree holding
	// only terminator symbols).
	MinSym, MaxSym Symbol
	// Seg is the subtree's segmented depth profile: Seg[s] bounds the
	// non-terminator symbols at relative depths s*HullSegLen ..
	// (s+1)*HullSegLen-1 below the child's parent (the child's own edge
	// label occupying the leading depths). A path shorter than a segment's
	// depth range contributes nothing to it, so an empty segment (Hi < Lo)
	// proves every path in the subtree ends above that segment — empties
	// always form a suffix of Seg. The profile is what lets a banded
	// search charge each query column against only the depths its warping
	// band can reach, instead of one hull that conflates a whole subtree's
	// near-track prefix with its divergent continuations.
	Seg [HullSegs]HullRange
}

// HullRange is one persisted segment hull: an inclusive symbol range, empty
// when Hi < Lo.
type HullRange struct{ Lo, Hi Symbol }

// Segmented-hull geometry: a stored child profile covers the symbols at
// relative depths 0..HullHorizon-1 below the child's parent, split into
// HullSegs segments of HullSegLen depths each. Readers that charge one gap
// per query column (the search engine's banded tail charge) must stop
// charging at columns whose band reaches past the horizon. The horizon
// comfortably exceeds |Q|+w for the workloads the engine targets; it exists
// to keep deep-suffix hulls from absorbing value range the DP could never
// reach, and the segmentation keeps a near-track subtree's prefix from
// widening the bound on its tail.
const (
	HullSegLen  = 2
	HullSegs    = 24
	HullHorizon = HullSegs * HullSegLen
)

// symHull accumulates the [lo, hi] symbol bound of a subtree while its
// records are written. The empty hull is hi < lo; users must start from
// emptyHull, not the zero value (which would claim symbol 0 is present).
type symHull struct{ lo, hi Symbol }

var emptyHull = symHull{lo: 0, hi: -1}

// depthHull is the bottom-up aggregation state of a horizon-limited hull
// profile: p[k] bounds the non-terminator symbols at relative depth exactly
// k over every path in the subtree (paths shorter than k contribute
// nothing). As with symHull, the zero value is wrong — start from
// emptyDepthHull.
type depthHull struct{ p [HullHorizon]symHull }

var emptyDepthHull = func() depthHull {
	var d depthHull
	for i := range d.p {
		d.p[i] = emptyHull
	}
	return d
}()

func (d depthHull) union(o depthHull) depthHull {
	for i := range d.p {
		d.p[i] = d.p[i].union(o.p[i])
	}
	return d
}

// prependLabel is the one step of bottom-up hull aggregation: the profile
// for a subtree entered over an edge of l label symbols (sym(i) reads the
// i'th) whose below-the-edge profile is below. Depths 0..l-1 are the
// label's own symbols; deeper slots splice in below's profile shifted by
// the label length. Terminators only occur at the end of leaf edges
// (nothing below them), so folding them as empty slots keeps the shift
// arithmetic exact. The loop is horizon-bounded, not label-bounded — long
// leaf edges cost O(HullHorizon), and their tail symbols stay out of the
// profile by design.
func prependLabel(l int32, sym func(int32) Symbol, below depthHull) depthHull {
	var out depthHull
	for k := int32(0); k < HullHorizon; k++ {
		if k < l {
			out.p[k] = emptyHull.add(sym(k))
		} else {
			out.p[k] = below.p[k-l]
		}
	}
	return out
}

func (h symHull) empty() bool { return h.hi < h.lo }

// add widens the hull with one symbol; terminators never enter a hull (the
// cascade compares hulls against query-value envelopes, and terminators
// carry no value).
func (h symHull) add(s Symbol) symHull {
	if suffixtree.IsTerminator(s) {
		return h
	}
	if h.empty() {
		return symHull{lo: s, hi: s}
	}
	if s < h.lo {
		h.lo = s
	}
	if s > h.hi {
		h.hi = s
	}
	return h
}

func (h symHull) union(o symHull) symHull {
	if o.empty() {
		return h
	}
	if h.empty() {
		return o
	}
	if o.lo < h.lo {
		h.lo = o.lo
	}
	if o.hi > h.hi {
		h.hi = o.hi
	}
	return h
}

// newHull is the persisted form of a subtree's depth profile: the segments
// plus the derived overall hull.
func newHull(d *depthHull) (h Hull) {
	for s := range h.Seg {
		g := emptyHull
		for k := s * HullSegLen; k < (s+1)*HullSegLen; k++ {
			g = g.union(d.p[k])
		}
		h.Seg[s] = HullRange{Lo: g.lo, Hi: g.hi}
	}
	h.setOverall()
	return h
}

// setOverall derives MinSym/MaxSym as the union of the segment hulls — the
// same derivation the decoder applies, since the overall hull is not
// stored.
func (h *Hull) setOverall() {
	all := emptyHull
	for _, g := range h.Seg {
		all = all.union(symHull{lo: g.Lo, hi: g.Hi})
	}
	h.MinSym, h.MaxSym = all.lo, all.hi
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
	// Hulls[i] is the subtree envelope of Children[i]: filled by the v3
	// decoder and read by the v3 encoder, empty in every other node.
	Hulls []Hull

	// rd serves File.ReadNodeInto's one-shot reads, kept on the node so a
	// reused scratch node keeps its page-crossing scratch. It holds a
	// borrowed page view only for the duration of one decode.
	rd Reader
}

// encodeNode appends n's record bytes to buf in the given layout and
// encoding, returning the extended slice. For LayoutInline, n.Label must
// be filled; for EncodingV3, n.Hulls must parallel n.Children.
func encodeNode(buf []byte, n *Node, layout Layout, enc Encoding) []byte {
	switch enc {
	case EncodingV3:
		return encodeNodeV3(buf, n, layout)
	case EncodingV2:
		return encodeNodeV2(buf, n, layout)
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

// encodeNodeV2 is the compact varint record encoder. Deltas are computed
// with wrapping uint64 arithmetic, so the encode∘decode round trip is the
// identity for any Node, not just well-formed trees (FuzzNodeCodecV2 pins
// this).
func encodeNodeV2(buf []byte, n *Node, layout Layout) []byte {
	return encodeNodeCompact(buf, n, layout, false)
}

// encodeNodeV3 is the v2 compact encoder plus per-child envelope hulls
// (FuzzNodeCodecV3 pins the round trip).
func encodeNodeV3(buf []byte, n *Node, layout Layout) []byte {
	return encodeNodeCompact(buf, n, layout, true)
}

// encodeNodeCompact is the shared v2/v3 varint encoder; hulls selects the
// v3 child-entry envelope tail: HullSegs segment hulls per child, each as
// zigzag(Lo) plus zigzag(Hi-Lo). On a real file a span is a small
// non-negative number (or -1 for the empty segment), and the int64
// difference of two int32 fields is exact, so the round trip is the
// identity for any segment array; the overall MinSym/MaxSym hull is not
// written — the decoder re-derives it as the segments' union.
func encodeNodeCompact(buf []byte, n *Node, layout Layout, hulls bool) []byte {
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
	for i, c := range n.Children {
		buf = binary.AppendVarint(buf, int64(c.Sym)-prevSym)
		buf = binary.AppendVarint(buf, int64(uint64(c.Ptr)-prevPtr))
		prevSym, prevPtr = int64(c.Sym), uint64(c.Ptr)
		if hulls {
			for _, g := range n.Hulls[i].Seg {
				buf = binary.AppendVarint(buf, int64(g.Lo))
				buf = binary.AppendVarint(buf, int64(g.Hi)-int64(g.Lo))
			}
		}
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
		if enc < EncodingV1 || enc > EncodingV3 {
			return meta{}, fmt.Errorf("disktree: unknown encoding %d", buf[metaBaseSize])
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
