package disktree

import (
	"fmt"

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
// dropped). poolPages bounds the two buffer pools. The open output file is
// returned.
func Rewrite(inPath, outPath string, poolPages int, enc Encoding, store *suffixtree.TextStore) (*File, error) {
	if enc == 0 {
		enc = EncodingV1
	}
	in, err := Open(inPath, poolPages, true)
	if err != nil {
		return nil, err
	}
	defer in.Close()
	if enc == EncodingV3 && in.Layout() == LayoutReference && store == nil {
		return nil, fmt.Errorf("disktree: rewriting a reference-layout tree to v3 needs the text store (envelope hulls read edge labels)")
	}

	// The merger's copySubtree is exactly the re-encode pass: it reads every
	// node through the input's decoder and emits it through the output's
	// encoder. The text store is consulted only when v3 hull aggregation
	// must expand reference labels; the pure copy path never compares
	// labels, so nil is safe everywhere else.
	m, err := newMerger(store, outPath, poolPages, meta{
		sparse: in.Sparse(), minSuffixLen: in.meta.minSuffixLen, layout: in.Layout(), enc: enc,
	})
	if err != nil {
		return nil, err
	}
	root, err := m.read(in, in.Root())
	if err != nil {
		return nil, m.fail(err)
	}
	rootPtr, _, err := m.copySubtree(edge{f: in, n: root})
	if err != nil {
		return nil, m.fail(err)
	}
	return m.finish(rootPtr)
}
