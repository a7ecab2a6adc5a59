package disktree

import (
	"cmp"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"time"

	"twsearch/internal/storage"
	"twsearch/internal/suffixtree"
)

// maxFanIn is how many tree files one merge pass reads at once. A merge
// holds one buffer pool per input plus one for the output, so construction
// memory is bounded by (maxFanIn+1) pools of BuildOptions.PoolPages pages
// (33 MiB at the 256-page default) however large the tree grows; more than
// maxFanIn batches merge in ⌈log₃₂ B⌉ passes.
const maxFanIn = 32

// edge is an edge into a source tree during a merge: the decoded node it
// leads to, whose label fields are trimmed in place as the merge consumes
// their prefix. The edge owns its node until merge or copySubtree recycles
// it, so every input record is decoded exactly once.
type edge struct {
	f   *File
	n   *Node
	sym Symbol // first symbol of the (trimmed) label; set when edges are grouped
}

// merger writes one output tree from any number of source trees with memory
// bounded by the buffer pools plus a recursion stack proportional to tree
// depth. Rewrite is the one-source case.
type merger struct {
	store     *suffixtree.TextStore
	out       *File
	app       *appender
	scratch   []byte
	nodes     uint64
	leaves    uint64
	labelSyms uint64
	// hulls turns on subtree-envelope aggregation for EncodingV3 output:
	// merge and copySubtree return their subtree's horizon-limited hull
	// vector so parents stamp child table entries, mirroring createOn's
	// bottom-up pass. When it is off every hull pointer is nil and no hull
	// is computed or copied.
	hulls bool
	// free recycles decoded nodes (and their child-table capacity).
	free []*Node
}

// newMerger creates the output file at outPath with mt's shape fields
// (sparseness, length filter, layout, encoding).
func newMerger(store *suffixtree.TextStore, outPath string, poolPages int, mt meta) (*merger, error) {
	pf, err := storage.CreateFile(outPath)
	if err != nil {
		return nil, err
	}
	m := &merger{store: store, out: &File{pf: pf, meta: mt}, hulls: mt.enc == EncodingV3}
	pool, err := storage.NewPool(pf, poolPages)
	if err != nil {
		return nil, m.fail(err)
	}
	m.out.src, m.out.pool = pool, pool
	if m.app, err = newAppender(pool); err != nil {
		return nil, m.fail(err)
	}
	return m, nil
}

// fail is the one cleanup path: it closes and removes the half-written
// output and returns err.
func (m *merger) fail(err error) error {
	if m.app != nil {
		m.app.close()
	}
	m.out.pf.Close()
	os.Remove(m.out.Path())
	return err
}

// finish persists the counters and the meta blob and returns the open
// output file.
func (m *merger) finish(root Ptr) (*File, error) {
	m.app.close()
	m.out.meta.root = root
	m.out.meta.nodes = m.nodes
	m.out.meta.leaves = m.leaves
	m.out.meta.labelSyms = m.labelSyms
	if err := m.out.finish(); err != nil {
		return nil, m.fail(err)
	}
	return m.out, nil
}

// MergeFiles merges the trees in inPaths (over the same text store, pairwise
// disjoint sequence sets) into a new tree file at outPath in one pass — the
// paper's disk-based binary merge is the two-input case. poolPages bounds
// each file's buffer pool. Ties between inputs resolve towards the earlier
// path, so the output depends only on the inputs and their order.
func MergeFiles(store *suffixtree.TextStore, inPaths []string, outPath string, poolPages int) (*File, error) {
	if len(inPaths) == 0 {
		return nil, errors.New("disktree: merging no trees")
	}
	roots := make([]edge, 0, len(inPaths))
	defer func() {
		for _, r := range roots {
			r.f.Close()
		}
	}()
	for _, path := range inPaths {
		f, err := Open(path, poolPages, true)
		if err != nil {
			return nil, fmt.Errorf("disktree: opening %s: %w", path, err)
		}
		roots = append(roots, edge{f: f})
		a := roots[0].f
		switch {
		case a.Sparse() != f.Sparse():
			return nil, errors.New("disktree: merging sparse with dense tree")
		case a.MinSuffixLen() != f.MinSuffixLen():
			return nil, fmt.Errorf("disktree: merging trees with different length filters (%d vs %d)",
				a.MinSuffixLen(), f.MinSuffixLen())
		case a.Layout() != f.Layout():
			return nil, fmt.Errorf("disktree: merging %s with %s layout", a.Layout(), f.Layout())
		case a.Encoding() != f.Encoding():
			return nil, fmt.Errorf("disktree: merging %s with %s encoding", a.Encoding(), f.Encoding())
		}
	}
	a := roots[0].f
	m, err := newMerger(store, outPath, poolPages, meta{
		sparse: a.Sparse(), minSuffixLen: a.meta.minSuffixLen, layout: a.Layout(), enc: a.Encoding(),
	})
	if err != nil {
		return nil, err
	}
	for i := range roots {
		if roots[i].n, err = m.read(roots[i].f, roots[i].f.Root()); err != nil {
			return nil, m.fail(err)
		}
	}
	root, _, err := m.merge(roots)
	if err != nil {
		return nil, m.fail(err)
	}
	return m.finish(root)
}

// newNode returns a recycled (or fresh) node; its fields are stale.
func (m *merger) newNode() *Node {
	if k := len(m.free); k > 0 {
		n := m.free[k-1]
		m.free = m.free[:k-1]
		return n
	}
	return new(Node)
}

// read decodes the node at p of f.
func (m *merger) read(f *File, p Ptr) (*Node, error) {
	n := m.newNode()
	return n, f.ReadNodeInto(p, n)
}

// sym reads symbol i of n's (trimmed) label.
func (m *merger) sym(n *Node, i int32) Symbol {
	if m.out.meta.layout == LayoutInline {
		return n.Label[i]
	}
	return m.store.Sym(int(n.LabelSeq), int(n.LabelStart+i))
}

// emit writes n's record, recycles n, and returns the record's offset plus
// the hull vector of the subtree entered over n's label, below being the
// union over n's children (nil, and nil back, when aggregation is off).
// Reference-layout labels need the text store; the merge path always has
// one, and Rewrite demands one before targeting v3.
func (m *merger) emit(n *Node, below *depthHull) (Ptr, *depthHull, error) {
	m.nodes++
	m.labelSyms += uint64(n.LabelLen)
	if n.Leaf {
		m.leaves++
	}
	ptr := m.app.offset()
	m.scratch = encodeNode(m.scratch[:0], n, m.out.meta.layout, m.out.meta.enc)
	if err := m.app.write(m.scratch); err != nil {
		return NilPtr, nil, err
	}
	if m.hulls {
		*below = prependLabel(n.LabelLen, func(i int32) Symbol { return m.sym(n, i) }, *below)
	}
	m.free = append(m.free, n)
	return ptr, below, nil
}

// newHull starts a node's below-the-label hull vector.
func (m *merger) newHull() *depthHull {
	if !m.hulls {
		return nil
	}
	h := emptyDepthHull
	return &h
}

// stamp records a just-written child subtree's hull on its child table entry
// and folds it into the parent's below vector.
func (m *merger) stamp(ref *ChildRef, below, child *depthHull) {
	if m.hulls {
		*ref = hullRef(*ref, *child)
		*below = below.union(*child)
	}
}

// copySubtree copies the subtree below e into the output with e's (possibly
// trimmed) label on the top edge; children keep their stored labels. The
// decoded node doubles as the output record: only its child offsets (and
// hulls) change.
func (m *merger) copySubtree(e edge) (Ptr, *depthHull, error) {
	n := e.n
	below := m.newHull()
	for i := range n.Children {
		ref := &n.Children[i]
		c, err := m.read(e.f, ref.Ptr)
		if err != nil {
			return NilPtr, nil, err
		}
		var h *depthHull
		if ref.Ptr, h, err = m.copySubtree(edge{f: e.f, n: c}); err != nil {
			return NilPtr, nil, err
		}
		m.stamp(ref, below, h)
	}
	return m.emit(n, below)
}

// merge writes the union of a group of edges that start with the same
// symbol (or, for the roots, all have the empty label): the common label
// prefix of the group becomes the merged node's label, every edge whose
// label the prefix consumes is replaced by its node's children, and the
// remaining edges regroup by their next symbol — a singleton group is a
// plain copy. The merged node takes its label from the first edge, and the
// regrouping is stable, so input order decides every tie.
func (m *merger) merge(es []edge) (Ptr, *depthHull, error) {
	if len(es) == 1 {
		return m.copySubtree(es[0])
	}
	first := es[0].n
	l := first.LabelLen
	for _, e := range es[1:] {
		l = min(l, e.n.LabelLen)
		for i := int32(1); i < l; i++ { // first symbols are known equal
			if m.sym(first, i) != m.sym(e.n, i) {
				l = i
				break
			}
		}
	}
	out := m.newNode()
	*out = Node{LabelSeq: first.LabelSeq, LabelStart: first.LabelStart, LabelLen: l,
		Label: out.Label[:0], Children: out.Children[:0]}
	if m.out.meta.layout == LayoutInline {
		out.Label = append(out.Label, first.Label[:l]...)
	}

	var kids []edge
	for _, e := range es {
		n := e.n
		if n.LabelLen > l {
			n.LabelStart += l
			n.LabelLen -= l
			if m.out.meta.layout == LayoutInline {
				n.Label = n.Label[l:]
			}
			kids = append(kids, edge{f: e.f, n: n, sym: m.sym(n, 0)})
			continue
		}
		if n.Leaf {
			// Another edge spells the same suffix or extends below it:
			// impossible with per-sequence terminators unless the sequence
			// sets overlap.
			return NilPtr, nil, errors.New("disktree: leaf collision during merge (overlapping sequence sets?)")
		}
		for i := range n.Children {
			c, err := m.read(e.f, n.Children[i].Ptr)
			if err != nil {
				return NilPtr, nil, err
			}
			kids = append(kids, edge{f: e.f, n: c, sym: n.Children[i].Sym})
		}
		m.free = append(m.free, n)
	}
	slices.SortStableFunc(kids, func(a, b edge) int { return cmp.Compare(a.sym, b.sym) })

	below := m.newHull()
	for i := 0; i < len(kids); {
		j := i + 1
		for j < len(kids) && kids[j].sym == kids[i].sym {
			j++
		}
		ptr, h, err := m.merge(kids[i:j])
		if err != nil {
			return NilPtr, nil, err
		}
		out.Children = append(out.Children, ChildRef{Sym: kids[i].sym, Ptr: ptr})
		m.stamp(&out.Children[len(out.Children)-1], below, h)
		i = j
	}
	return m.emit(out, below)
}

// BuildOptions controls the disk-based construction pipeline.
type BuildOptions struct {
	// Sparse selects the sparse suffix tree (run-head suffixes only).
	Sparse bool
	// MinSuffixLen, when > 1, omits suffixes shorter than this — the
	// conclusion-section length filter for queries with a known minimum
	// answer length.
	MinSuffixLen int
	// BatchSize is how many sequences are built into each initial in-memory
	// tree before it is spilled to disk. Defaults to 64.
	BatchSize int
	// PoolPages bounds each buffer pool during merging. Defaults to 256
	// (1 MiB per pool).
	PoolPages int
	// Layout selects the node record format (reference by default; inline
	// is the paper's storage model).
	Layout Layout
	// Encoding selects the record serialization (v1 fixed-width by default;
	// v2 compact varints).
	Encoding Encoding
	// Stats, when non-nil, receives construction statistics.
	Stats *BuildStats
}

// BuildStats describes one disk-construction run.
type BuildStats struct {
	// Batches is the number of initial in-memory trees spilled to disk.
	Batches int
	// MergeRounds is the number of merge passes over the whole tree: 0 for
	// a single batch, 1 for up to 32 batches.
	MergeRounds int
	// Merges is the total number of k-way disk merges performed.
	Merges int
	// Elapsed is the wall-clock construction time.
	Elapsed time.Duration
}

func (o BuildOptions) withDefaults() BuildOptions {
	if o.BatchSize <= 0 {
		o.BatchSize = 64
	}
	if o.PoolPages <= 0 {
		o.PoolPages = 256
	}
	if o.Encoding == 0 {
		o.Encoding = EncodingV1
	}
	return o
}

// Build constructs the disk-based suffix tree of the given sequences at
// outPath: in-memory trees for batches of BatchSize sequences are spilled
// to disk concurrently, then merged in one k-way pass (one pass per factor
// of maxFanIn batches) — the paper's "series of binary merges of suffix
// trees of increasing size" collapsed into its k-input generalization.
// Every intermediate lives in one scratch directory next to outPath that is
// removed on return; only the finished tree is renamed out of it, so a
// failed build leaves the directory as it found it. The output bytes do not
// depend on GOMAXPROCS or scheduling.
func Build(store *suffixtree.TextStore, seqs []int, outPath string, opts BuildOptions) (*File, error) {
	opts = opts.withDefaults()
	started := time.Now()
	var stats BuildStats
	defer func() {
		if opts.Stats != nil {
			stats.Elapsed = time.Since(started)
			*opts.Stats = stats
		}
	}()
	scratch, err := os.MkdirTemp(filepath.Dir(outPath), ".twtree-build-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(scratch)

	paths, err := spillBatches(store, seqs, scratch, opts)
	if err != nil {
		return nil, err
	}
	stats.Batches = len(paths)
	for ; len(paths) > 1; stats.MergeRounds++ {
		var next []string
		for i := 0; i < len(paths); i += maxFanIn {
			group := paths[i:min(i+maxFanIn, len(paths))]
			if len(group) == 1 {
				next = append(next, group[0]) // odd one out: rides along to the next pass
				continue
			}
			out := filepath.Join(scratch, fmt.Sprintf("merge-%d-%d", stats.MergeRounds, len(next)))
			f, err := MergeFiles(store, group, out, opts.PoolPages)
			if err != nil {
				return nil, err
			}
			if err := f.Close(); err != nil {
				return nil, err
			}
			for _, p := range group {
				os.Remove(p) // consumed; frees the disk space before the next pass
			}
			next = append(next, out)
			stats.Merges++
		}
		paths = next
	}
	if err := os.Rename(paths[0], outPath); err != nil {
		return nil, err
	}
	return Open(outPath, opts.PoolPages, false)
}

// spillBatches is phase 1 of Build: batch i is the in-memory tree of
// seqs[i*BatchSize:(i+1)*BatchSize], serialized to its own file in dir. The
// batches are independent and equally sized, so they are dealt round-robin
// to up to GOMAXPROCS goroutines (that many batch trees are resident
// together); which goroutine builds a batch does not affect its bytes. An
// empty seqs yields one root-only batch.
func spillBatches(store *suffixtree.TextStore, seqs []int, dir string, opts BuildOptions) ([]string, error) {
	paths := make([]string, max(1, (len(seqs)+opts.BatchSize-1)/opts.BatchSize))
	errs := make([]error, len(paths))
	workers := min(runtime.GOMAXPROCS(0), len(paths))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < len(paths); i += workers {
				batch := seqs[min(i*opts.BatchSize, len(seqs)):min((i+1)*opts.BatchSize, len(seqs))]
				t := suffixtree.BuildMergedFiltered(store, batch, opts.Sparse, opts.MinSuffixLen)
				paths[i] = filepath.Join(dir, fmt.Sprintf("batch-%d", i))
				f, err := CreateEncoded(paths[i], t, opts.PoolPages, opts.Layout, opts.Encoding)
				if err == nil {
					// A failed close means the batch never fully flushed; merging a
					// truncated batch would silently drop suffixes from the index.
					err = f.Close()
				}
				errs[i] = err
			}
		}()
	}
	wg.Wait()
	return paths, errors.Join(errs...)
}
