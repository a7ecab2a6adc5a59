package disktree

import (
	"fmt"
	"os"

	"twsearch/internal/storage"
	"twsearch/internal/suffixtree"
)

// Rewrite copies the tree at inPath into a new file at outPath with the
// record encoding enc, preserving layout, sparseness and the length filter.
// The copy is a pure structural walk, so it migrates between encodings
// byte-for-byte equivalently: the rewritten tree decodes to the identical
// node set. Migrating TO EncodingV3 additionally aggregates the per-child
// subtree envelopes bottom-up; for reference-layout trees that pass reads
// edge labels, so store must hold the categorized texts the tree was built
// over (inline-layout trees carry their labels and may pass nil, as may any
// rewrite to v1/v2 — hulls already present in a v3 input are simply
// dropped). poolPages bounds the input's buffer pool and the returned
// file's. A failed rewrite leaves no output file.
func Rewrite(inPath, outPath string, poolPages int, enc Encoding, store *suffixtree.TextStore) (*File, error) {
	in, err := Open(inPath, poolPages, true)
	if err != nil {
		return nil, err
	}
	defer in.Close()
	if enc == EncodingV3 && in.Layout() == LayoutReference && store == nil {
		return nil, fmt.Errorf("disktree: rewriting a reference-layout tree to v3 needs the text store (envelope hulls read edge labels)")
	}
	pf, err := storage.CreateFile(outPath)
	if err != nil {
		return nil, err
	}
	c := copier{in: in, store: store, w: newTreeWriter(pf, meta{
		sparse: in.Sparse(), minSuffixLen: in.meta.minSuffixLen, layout: in.Layout(), enc: enc,
	})}
	root, err := c.copySubtree(ChildRef{Ptr: in.Root()}, nil)
	if err != nil {
		os.Remove(outPath)
		return nil, c.w.abort(err)
	}
	out, err := c.w.finish(root, poolPages)
	if err != nil {
		os.Remove(outPath)
	}
	return out, err
}

// copier re-encodes one tree file into a treeWriter with memory bounded by
// the input's pool plus a recursion stack proportional to tree depth.
type copier struct {
	in    *File
	store *suffixtree.TextStore
	w     *treeWriter
}

// copySubtree copies the subtree its parent's entry at points to into the
// output, attaches its new entry — for v3 output with the hull, also folded
// into parent as in createOn — and returns its new offset. The decoded node
// doubles as the output record: only its child table is replaced.
func (c *copier) copySubtree(at ChildRef, parent *depthHull) (Ptr, error) {
	var n Node
	if err := c.in.ReadNodeInto(at.Ptr, &n); err != nil {
		return NilPtr, err
	}
	below := emptyDepthHull
	first := len(c.w.kids)
	for _, kid := range n.Children {
		if _, err := c.copySubtree(kid, &below); err != nil {
			return NilPtr, err
		}
	}
	ptr, err := c.w.emit(&n, first)
	if err != nil || parent == nil {
		return ptr, err
	}
	// Reference-layout labels need the text store; Rewrite demands one
	// before targeting v3, the only output that reads labels.
	c.w.attach(at.Sym, ptr, n.LabelLen, func(i int32) Symbol {
		if c.in.Layout() == LayoutInline {
			return n.Label[i]
		}
		return c.store.Sym(int(n.LabelSeq), int(n.LabelStart+i))
	}, &below, parent)
	return ptr, nil
}
