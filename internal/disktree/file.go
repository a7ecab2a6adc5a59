package disktree

import (
	"fmt"

	"twsearch/internal/categorize"
	"twsearch/internal/storage"
	"twsearch/internal/suffixtree"
)

// File is a disk-resident suffix tree, read through a PageSource — a
// zero-copy mmap source or the lock-striped LRU buffer pool, as its opener
// names (Open names the pool). The read path (ReadNode, ReadNodeInto, any
// number of Readers) is safe for any number of concurrent goroutines; one
// open File serves all searches on an index.
// A tree file is written once, by a treeWriter that appends pages straight
// to the page file, and closed; readers then open it with Open or
// OpenBackend. Sources only read.
type File struct {
	pf   *storage.File
	src  storage.PageSource
	meta meta
}

// Create serializes an in-memory tree to path in the reference layout and
// returns it opened read-only. poolPages bounds the returned file's buffer
// pool.
func Create(path string, tree *suffixtree.Tree, poolPages int) (*File, error) {
	return CreateEncoded(path, tree, poolPages, LayoutReference, EncodingV1)
}

// CreateEncoded is Create with an explicit record encoding. layout must be
// LayoutReference, the only layout there is.
func CreateEncoded(path string, tree *suffixtree.Tree, poolPages int, layout Layout, enc Encoding) (*File, error) {
	if layout != LayoutReference {
		return nil, fmt.Errorf("disktree: unknown layout %d", layout)
	}
	pf, err := storage.CreateFile(path)
	if err != nil {
		return nil, err
	}
	if err := createOn(pf, tree, enc); err != nil {
		return nil, err
	}
	if err := pf.Close(); err != nil {
		return nil, err
	}
	return Open(path, poolPages, true)
}

// createOn writes tree onto the freshly created pf, which it leaves open
// after a success and closes after a failure.
func createOn(pf *storage.File, tree *suffixtree.Tree, enc Encoding) error {
	w := newTreeWriter(pf, meta{sparse: tree.Sparse, minSuffixLen: lengthFilter(tree.MinSuffixLen), enc: enc})

	// The write is post-order (children before parents): each recursion
	// leaves its node's entry on the writer's stack for the parent's child
	// table.
	var out Node
	var writeNode func(n *suffixtree.Node) (Ptr, error)
	writeNode = func(n *suffixtree.Node) (Ptr, error) {
		first := len(w.kids)
		for _, c := range n.Children {
			if _, err := writeNode(c); err != nil {
				return NilPtr, err
			}
		}
		out.LabelSeq, out.LabelStart, out.LabelLen, out.Leaf = n.LabelSeq, n.LabelStart, n.LabelLen, n.Leaf != nil
		if n.Leaf != nil {
			out.LabelSeq = n.Leaf.Seq
			out.Pos = n.Leaf.Pos
			out.RunLen = n.Leaf.RunLen
		}
		ptr, err := w.emit(&out, first)
		if err != nil || n == tree.Root {
			return ptr, err
		}
		// The label is n's own (a leaf's out.LabelSeq was repointed at the
		// suffix owner).
		w.attach(tree.Store.Sym(int(n.LabelSeq), int(n.LabelStart)), ptr)
		return ptr, nil
	}
	return w.write(func() (Ptr, error) { return writeNode(tree.Root) })
}

// Open opens an existing tree file through the buffer pool.
func Open(path string, poolPages int, readOnly bool) (*File, error) {
	return OpenBackend(path, poolPages, readOnly, storage.BackendPool)
}

// OpenBackend opens an existing tree file through the chosen page source.
// poolPages bounds the buffer pool when the pool backend is selected, or
// when mmap falls back to it.
func OpenBackend(path string, poolPages int, readOnly bool, backend storage.Backend) (*File, error) {
	pf, err := storage.OpenFile(path, readOnly)
	if err != nil {
		return nil, err
	}
	return open(pf, poolPages, backend)
}

// open reads pf's meta page and puts the chosen page source in front of
// it; on failure pf is closed.
func open(pf *storage.File, poolPages int, backend storage.Backend) (*File, error) {
	blob, err := pf.Meta()
	if err != nil {
		pf.Close()
		return nil, err
	}
	m, err := decodeMeta(blob)
	if err != nil {
		pf.Close()
		return nil, err
	}
	src, err := storage.NewSource(pf, backend, poolPages)
	if err != nil {
		pf.Close()
		return nil, err
	}
	return &File{pf: pf, src: src, meta: m}, nil
}

// Close closes the page source and the underlying page file.
func (f *File) Close() error { return f.src.Close() }

// Root returns the root node's offset.
func (f *File) Root() Ptr { return f.meta.root }

// Sparse reports whether the tree stores only run-head suffixes.
func (f *File) Sparse() bool { return f.meta.sparse }

// NumNodes returns the total node count.
func (f *File) NumNodes() uint64 { return f.meta.nodes }

// NumLeaves returns the leaf count.
func (f *File) NumLeaves() uint64 { return f.meta.leaves }

// TotalLabelSymbols returns the summed expanded edge-label length — what an
// inline-label representation (the paper's) would store.
func (f *File) TotalLabelSymbols() uint64 { return f.meta.labelSyms }

// MinSuffixLen returns the suffix length filter the tree was built with
// (0 = every suffix stored).
func (f *File) MinSuffixLen() int { return int(f.meta.minSuffixLen) }

// Encoding returns the node record encoding of the file.
func (f *File) Encoding() Encoding { return f.meta.enc }

// SizeBytes returns the index file size — the paper's Table 1 metric.
func (f *File) SizeBytes() int64 { return f.pf.SizeBytes() }

// Path returns the file path.
func (f *File) Path() string { return f.pf.Path() }

// PoolStats returns the page source's unified counters (cache hits, misses
// and evictions for the pool; view counts for the mmap source).
func (f *File) PoolStats() storage.PoolStats { return f.src.Stats() }

// PoolShardStats returns per-stripe counters, in stripe order; unstriped
// sources report a single entry.
func (f *File) PoolShardStats() []storage.PoolStats { return f.src.ShardStats() }

// PinnedPages returns how many buffer pool frames are pinned right now —
// zero whenever no read is in flight; sources without pinning report zero.
func (f *File) PinnedPages() int {
	if pool, ok := f.src.(*storage.Pool); ok {
		return pool.PinnedCount()
	}
	return 0
}

// GuardFaults arms the fault guard of the file's page source on the
// calling goroutine (storage.FaultGuard): a traversal that reads the tree
// defers its Recover once around the whole walk.
func (f *File) GuardFaults() storage.FaultGuard { return storage.GuardFaults(f.src) }

// PagesRead returns physical page reads since open.
func (f *File) PagesRead() uint64 { return f.pf.PagesRead() }

// ReadNodeInto decodes the node at p into n — one record through n's own
// Reader, opened and closed around it, so nothing stays borrowed. A
// traversal that reads many nodes holds a Reader of its own instead.
func (f *File) ReadNodeInto(p Ptr, n *Node) error {
	n.rd.Reset(f)
	err := n.rd.ReadNodeInto(p, n)
	n.rd.Close()
	return err
}

// ReadNode decodes the node at p into a fresh Node.
func (f *File) ReadNode(p Ptr) (Node, error) {
	var n Node
	err := f.ReadNodeInto(p, &n)
	return n, err
}

// Load reconstructs the whole tree in memory — the inverse of Create, used
// by tests and by tools that inspect small indexes. A dense tree's leaves
// get their run lengths from the store: only a sparse tree's are read from
// the file, where a v2 file holds nothing else.
func (f *File) Load(store *suffixtree.TextStore) (*suffixtree.Tree, error) {
	var build func(p Ptr) (*suffixtree.Node, error)
	build = func(p Ptr) (*suffixtree.Node, error) {
		dn, err := f.ReadNode(p)
		if err != nil {
			return nil, err
		}
		n := &suffixtree.Node{
			LabelSeq:   dn.LabelSeq,
			LabelStart: dn.LabelStart,
			LabelLen:   dn.LabelLen,
		}
		if dn.Leaf {
			n.Leaf = &suffixtree.LeafInfo{Seq: dn.LabelSeq, Pos: dn.Pos, RunLen: dn.RunLen}
			if seq, pos := int(dn.LabelSeq), int(dn.Pos); !f.meta.sparse && seq >= 0 && seq < store.Len() && pos >= 0 && pos < len(store.Text(seq)) {
				n.Leaf.RunLen = int32(categorize.RunLengthAt(store.Text(seq), pos))
			}
			return n, nil
		}
		n.Children = make([]*suffixtree.Node, len(dn.Children))
		for i, c := range dn.Children {
			if n.Children[i], err = build(c.Ptr); err != nil {
				return nil, err
			}
		}
		return n, nil
	}
	root, err := build(f.meta.root)
	if err != nil {
		return nil, err
	}
	return &suffixtree.Tree{Store: store, Root: root, Sparse: f.meta.sparse, MinSuffixLen: f.MinSuffixLen()}, nil
}
