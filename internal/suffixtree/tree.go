// Package suffixtree implements the in-memory generalized suffix tree of
// Section 4: a compressed trie over the suffixes of a set of categorized
// sequences, each suffix ended by a per-sequence terminator symbol so that
// every suffix owns exactly one leaf labelled (t, p).
//
// Trees are built the way the paper describes: a suffix tree per sequence
// (Ukkonen's algorithm), then a series of binary merges (Section 4.1, after
// Bieganski et al.). A naive suffix-insertion builder doubles as the
// executable specification the fast builders are tested against, and as the
// builder for sparse trees (Section 6), which store only the run-head
// suffixes.
//
// The disk-resident representation lives in internal/disktree; it
// serializes trees produced here, and its production builder — which sorts
// suffixes instead of merging trees — is tested against them.
package suffixtree

import (
	"fmt"
	"sort"

	"twsearch/internal/categorize"
)

// Symbol aliases the categorization symbol type. Non-negative symbols are
// category indexes; negative symbols are per-sequence terminators.
type Symbol = categorize.Symbol

// Terminator returns the unique end-marker symbol of sequence seq.
func Terminator(seq int) Symbol { return Symbol(-(seq + 1)) }

// IsTerminator reports whether sym is an end marker.
func IsTerminator(sym Symbol) bool { return sym < 0 }

// TextStore owns the categorized symbol sequences a tree (or several trees
// being merged) refers to. Edge labels are (seq, start, len) references into
// the store; position len(text) of sequence seq reads as Terminator(seq).
// The texts sit end to end in one array, each followed by its terminator, so
// that position is a stored symbol like any other: reading a label, or
// comparing two suffixes, is plain indexing with no end-of-text test.
type TextStore struct {
	flat   []Symbol
	starts []int // text seq is flat[starts[seq] : starts[seq+1]-1]; one more entry than texts
}

// NewTextStore returns an empty store.
func NewTextStore() *TextStore { return &TextStore{starts: []int{0}} }

// Add appends a copy of a sequence and returns its id. Empty sequences are
// allowed in the store but cannot be indexed.
func (ts *TextStore) Add(syms []Symbol) int {
	seq := ts.Len()
	if need := len(ts.flat) + len(syms) + 1; need > cap(ts.flat) {
		// Doubling, where append's growth for large slices is a quarter: a
		// store filled text by text is copied twice over, not five times.
		ts.flat = append(make([]Symbol, 0, max(need, 2*cap(ts.flat))), ts.flat...)
	}
	ts.flat = append(append(ts.flat, syms...), Terminator(seq))
	ts.starts = append(ts.starts, len(ts.flat))
	return seq
}

// Len returns the number of sequences.
func (ts *TextStore) Len() int { return len(ts.starts) - 1 }

// Text returns the symbols of sequence seq (without terminator). The caller
// must not modify them.
func (ts *TextStore) Text(seq int) []Symbol {
	end := ts.starts[seq+1] - 1
	return ts.flat[ts.starts[seq]:end:end]
}

// Sym reads position pos of sequence seq; pos == len(text) yields the
// sequence's terminator.
func (ts *TextStore) Sym(seq, pos int) Symbol { return ts.flat[ts.starts[seq]+pos] }

// Flat returns the array the texts are stored in, each followed by its
// terminator, and where each text starts in it (with one more entry, the
// array's length). Text seq's symbol pos is syms[starts[seq]+pos]. Neither
// slice may be modified.
func (ts *TextStore) Flat() (syms []Symbol, starts []int) { return ts.flat, ts.starts }

// Node is a suffix tree node. The edge from the parent is the label
// (LabelSeq, LabelStart, LabelLen); the root has LabelLen == 0. Children are
// kept sorted by the first symbol of their edge label, which makes merges a
// linear zip and traversal deterministic.
type Node struct {
	LabelSeq   int32
	LabelStart int32
	LabelLen   int32
	Children   []*Node
	// Leaf is non-nil on leaves and records which suffix the leaf stands
	// for: suffix (Seq, Pos), with RunLen the number of consecutive equal
	// symbols at Pos (used by the sparse-tree search to recover non-stored
	// suffixes via D_tw-lb2).
	Leaf *LeafInfo
}

// LeafInfo identifies the suffix a leaf represents.
type LeafInfo struct {
	Seq    int32
	Pos    int32
	RunLen int32
}

// Tree is a generalized suffix tree over a TextStore.
type Tree struct {
	Store *TextStore
	Root  *Node
	// Sparse records whether only run-head suffixes were inserted.
	Sparse bool
	// MinSuffixLen records the length filter the tree was built with
	// (0 or 1 = all suffixes). Suffixes shorter than this are absent.
	MinSuffixLen int
}

// firstSymbol returns the first symbol of n's edge label.
func (t *Tree) firstSymbol(n *Node) Symbol {
	return t.Store.Sym(int(n.LabelSeq), int(n.LabelStart))
}

// LabelSymbols expands an edge label into its symbols (terminator included
// when the label covers it).
func (t *Tree) LabelSymbols(n *Node) []Symbol {
	out := make([]Symbol, n.LabelLen)
	for i := range out {
		out[i] = t.Store.Sym(int(n.LabelSeq), int(n.LabelStart)+i)
	}
	return out
}

// findChild returns the child of n whose edge starts with sym, or nil.
func (t *Tree) findChild(n *Node, sym Symbol) *Node {
	i := sort.Search(len(n.Children), func(i int) bool {
		return t.firstSymbol(n.Children[i]) >= sym
	})
	if i < len(n.Children) && t.firstSymbol(n.Children[i]) == sym {
		return n.Children[i]
	}
	return nil
}

// insertChild adds c to n keeping children sorted. It panics if a child
// with the same first symbol exists — callers must have checked.
func (t *Tree) insertChild(n *Node, c *Node) {
	sym := t.firstSymbol(c)
	i := sort.Search(len(n.Children), func(i int) bool {
		return t.firstSymbol(n.Children[i]) >= sym
	})
	if i < len(n.Children) && t.firstSymbol(n.Children[i]) == sym {
		//lint:ignore panicpath caller-contract assertion: every call site first probes findChild for the symbol; a duplicate child would make lookups ambiguous
		panic("suffixtree: duplicate child first symbol")
	}
	n.Children = append(n.Children, nil)
	copy(n.Children[i+1:], n.Children[i:])
	n.Children[i] = c
}

// replaceChild swaps the child with old's first symbol for repl.
func (t *Tree) replaceChild(n *Node, old, repl *Node) {
	sym := t.firstSymbol(old)
	i := sort.Search(len(n.Children), func(i int) bool {
		return t.firstSymbol(n.Children[i]) >= sym
	})
	if i >= len(n.Children) || n.Children[i] != old {
		//lint:ignore panicpath caller-contract assertion: old was just obtained from this node's child list; a miss means the tree structure is already corrupt
		panic("suffixtree: replaceChild: not a child")
	}
	n.Children[i] = repl
}

// Stats summarizes a tree.
type Stats struct {
	Nodes      int // all nodes including root and leaves
	Leaves     int
	MaxDepth   int // deepest node in edges
	TotalLabel int // sum of label lengths (uncompressed path material)
	SizeBytes  int // estimated in-memory footprint
}

// ComputeStats walks the tree once.
func (t *Tree) ComputeStats() Stats {
	var st Stats
	var walk func(n *Node, depth int)
	walk = func(n *Node, depth int) {
		st.Nodes++
		st.TotalLabel += int(n.LabelLen)
		if depth > st.MaxDepth {
			st.MaxDepth = depth
		}
		if n.Leaf != nil {
			st.Leaves++
		}
		for _, c := range n.Children {
			walk(c, depth+1)
		}
	}
	walk(t.Root, 0)
	// Rough in-memory estimate: node struct + child slice headers + leaf.
	st.SizeBytes = st.Nodes*48 + st.Leaves*16
	return st
}

// Suffixes returns every (seq, pos) leaf in DFS order.
func (t *Tree) Suffixes() []LeafInfo {
	var out []LeafInfo
	var walk func(n *Node)
	walk = func(n *Node) {
		if n.Leaf != nil {
			out = append(out, *n.Leaf)
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(t.Root)
	return out
}

// Find returns the (seq, pos) occurrences of the exact symbol pattern — the
// classical O(|pattern|) suffix tree lookup plus subtree leaf collection.
func (t *Tree) Find(pattern []Symbol) []LeafInfo {
	if len(pattern) == 0 {
		return nil
	}
	n := t.Root
	// Position within n's edge label; the root's empty label is exhausted.
	depth := 0 // symbols of pattern consumed
	for depth < len(pattern) {
		child := t.findChild(n, pattern[depth])
		if child == nil {
			return nil
		}
		// Walk the edge label.
		for i := 0; i < int(child.LabelLen) && depth < len(pattern); i++ {
			if t.Store.Sym(int(child.LabelSeq), int(child.LabelStart)+i) != pattern[depth] {
				return nil
			}
			depth++
		}
		n = child
	}
	var out []LeafInfo
	var walk func(n *Node)
	walk = func(n *Node) {
		if n.Leaf != nil {
			out = append(out, *n.Leaf)
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(n)
	return out
}

// Validate checks structural invariants: sorted distinct child symbols,
// internal nodes (except the root) have >= 2 children, every leaf's path
// label spells its suffix plus terminator, and leaf run lengths match the
// text. It returns the first violation found.
func (t *Tree) Validate() error {
	var walk func(n *Node, path []Symbol) error
	walk = func(n *Node, path []Symbol) error {
		if n != t.Root {
			path = append(path, t.LabelSymbols(n)...)
		}
		if n.Leaf != nil {
			if len(n.Children) != 0 {
				return fmt.Errorf("leaf (%d,%d) has children", n.Leaf.Seq, n.Leaf.Pos)
			}
			want := t.suffixSymbols(int(n.Leaf.Seq), int(n.Leaf.Pos))
			if !symbolsEqual(path, want) {
				return fmt.Errorf("leaf (%d,%d): path %v != suffix %v", n.Leaf.Seq, n.Leaf.Pos, path, want)
			}
			text := t.Store.Text(int(n.Leaf.Seq))
			if int(n.Leaf.Pos) < len(text) {
				if got := categorize.RunLengthAt(text, int(n.Leaf.Pos)); got != int(n.Leaf.RunLen) {
					return fmt.Errorf("leaf (%d,%d): run length %d != %d", n.Leaf.Seq, n.Leaf.Pos, n.Leaf.RunLen, got)
				}
			}
			return nil
		}
		if n != t.Root && len(n.Children) < 2 {
			return fmt.Errorf("internal node with %d children at path %v", len(n.Children), path)
		}
		var prev Symbol
		for i, c := range n.Children {
			if c.LabelLen <= 0 {
				return fmt.Errorf("empty edge label at path %v", path)
			}
			sym := t.firstSymbol(c)
			if i > 0 && sym <= prev {
				return fmt.Errorf("children unsorted at path %v", path)
			}
			prev = sym
			if err := walk(c, path); err != nil {
				return err
			}
		}
		return nil
	}
	return walk(t.Root, nil)
}

// suffixSymbols returns text[seq][pos:] plus the terminator.
func (t *Tree) suffixSymbols(seq, pos int) []Symbol {
	text := t.Store.Text(seq)
	out := make([]Symbol, 0, len(text)-pos+1)
	out = append(out, text[pos:]...)
	return append(out, Terminator(seq))
}

func symbolsEqual(a, b []Symbol) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Equal reports whether two trees over the same store are structurally
// identical: same shape, same expanded labels, same leaves.
func Equal(a, b *Tree) bool {
	var eq func(x, y *Node) bool
	eq = func(x, y *Node) bool {
		if !symbolsEqual(a.LabelSymbols(x), b.LabelSymbols(y)) {
			return false
		}
		if (x.Leaf == nil) != (y.Leaf == nil) {
			return false
		}
		if x.Leaf != nil && *x.Leaf != *y.Leaf {
			return false
		}
		if len(x.Children) != len(y.Children) {
			return false
		}
		for i := range x.Children {
			if !eq(x.Children[i], y.Children[i]) {
				return false
			}
		}
		return true
	}
	return eq(a.Root, b.Root)
}
