package disktree

import (
	"errors"
	"fmt"
	"math/bits"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"twsearch/internal/categorize"
	"twsearch/internal/storage"
	"twsearch/internal/suffixtree"
)

// BuildOptions controls the disk-based construction.
type BuildOptions struct {
	// Sparse selects the sparse suffix tree (run-head suffixes only).
	Sparse bool
	// MinSuffixLen, when > 1, omits suffixes shorter than this — the
	// conclusion-section length filter for queries with a known minimum
	// answer length.
	MinSuffixLen int
	// PoolPages bounds the returned file's buffer pool. Defaults to 256
	// (1 MiB).
	PoolPages int
	// Encoding selects the record serialization (v1 fixed-width by default;
	// v2 compact varints).
	Encoding Encoding
	// Stats, when non-nil, receives construction statistics.
	Stats *BuildStats
}

// BuildStats describes one construction run and where its time went.
type BuildStats struct {
	// Suffixes is the number of suffixes indexed (the tree's leaf count),
	// Nodes the number of node records written.
	Suffixes, Nodes int
	// SortElapsed covers enumerating and sorting the suffixes, WriteElapsed
	// streaming the records out and syncing the file; Elapsed is both.
	SortElapsed, WriteElapsed, Elapsed time.Duration
}

func (o BuildOptions) withDefaults() BuildOptions {
	if o.PoolPages <= 0 {
		o.PoolPages = 256
	}
	return o
}

// DuplicateSuffixError reports that two indexed suffixes spell the same
// symbols through their terminators — possible only when a sequence id is
// listed twice, since terminators are unique per sequence.
type DuplicateSuffixError struct{ Seq, Pos int }

func (e *DuplicateSuffixError) Error() string {
	return fmt.Sprintf("disktree: suffix %d of sequence %d indexed twice (sequence listed twice?)", e.Pos, e.Seq)
}

// Build constructs the disk-based suffix tree of the given sequences at
// outPath in one sort-and-stream pass: the indexed suffix starts are sorted
// by their terminated symbol strings — that order is the tree's leaf order,
// and the adjacent common-prefix lengths are its branching depths — and one
// walk over the sorted list emits every node record in post-order, each
// page written once. Terminated suffixes are prefix-free, so they have
// exactly one compacted trie: the result is the tree the paper's series of
// binary merges produces (suffixtree.BuildMergedFiltered, the reference
// this is tested against). Beside the text store, construction holds 12
// bytes per indexed suffix plus the child tables of the nodes open on the
// current root-to-leaf path. The file is written in a scratch directory
// next to outPath and renamed into place, so a failed build leaves the
// directory as it found it. The bytes do not depend on GOMAXPROCS.
func Build(store *suffixtree.TextStore, seqs []int, outPath string, opts BuildOptions) (*File, error) {
	opts = opts.withDefaults()
	scratch, err := os.MkdirTemp(filepath.Dir(outPath), ".twtree-build-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(scratch)
	tmp := filepath.Join(scratch, "tree")
	pf, err := storage.CreateFile(tmp)
	if err != nil {
		return nil, err
	}
	f, err := buildOn(pf, store, seqs, opts)
	if err != nil {
		return nil, err
	}
	// The handle is bound to the scratch path: close it, move the finished
	// tree into place and reopen it there.
	if err := f.Close(); err != nil {
		return nil, err
	}
	if err := os.Rename(tmp, outPath); err != nil {
		return nil, err
	}
	return Open(outPath, opts.PoolPages, false)
}

// BuildMem is Build onto an in-memory page file — an index with no
// filesystem footprint, built by the same pass.
func BuildMem(store *suffixtree.TextStore, seqs []int, opts BuildOptions) (*File, error) {
	pf, err := storage.CreateMemFile()
	if err != nil {
		return nil, err
	}
	return buildOn(pf, store, seqs, opts.withDefaults())
}

// buildOn runs the two phases onto the freshly created pf and returns the
// finished tree open through a pool; on failure pf is closed.
func buildOn(pf *storage.File, store *suffixtree.TextStore, seqs []int, opts BuildOptions) (*File, error) {
	started := time.Now()
	w := newTreeWriter(pf, meta{sparse: opts.Sparse, minSuffixLen: lengthFilter(opts.MinSuffixLen), enc: opts.Encoding})
	b := &builder{store: store, w: w}
	if err := b.sortSuffixes(seqs, opts.Sparse, opts.MinSuffixLen); err != nil {
		return nil, w.abort(err)
	}
	sorted := time.Now()
	root, err := b.stream()
	if err != nil {
		return nil, w.abort(err)
	}
	f, err := w.finish(root, opts.PoolPages)
	if err == nil && opts.Stats != nil {
		*opts.Stats = BuildStats{
			Suffixes: len(b.sa), Nodes: int(w.meta.nodes),
			SortElapsed: sorted.Sub(started), WriteElapsed: time.Since(sorted), Elapsed: time.Since(started),
		}
	}
	return f, err
}

// suffix is one indexed suffix start.
type suffix struct{ seq, pos int32 }

// builder holds the sorted suffix list between the two phases: sa in
// symbol-string order, lcp[i] the number of leading symbols sa[i] shares
// with sa[i-1] (lcp[0] = 0). Terminators are negative, so they order before
// every category and among themselves by -(seq+1).
type builder struct {
	store *suffixtree.TextStore
	w     *treeWriter
	sa    []suffix
	lcp   []int32

	// Stream state: the open nodes on the path to the current suffix; the
	// child entries they have collected so far are on the writer's stack.
	open []openNode
	node Node
}

// sym reads symbol d of suffix s; d == the suffix's length is its
// terminator.
func (b *builder) sym(s suffix, d int32) Symbol {
	t := b.store.Text(int(s.seq))
	if i := int(s.pos + d); i < len(t) {
		return t[i]
	}
	return suffixtree.Terminator(int(s.seq))
}

// maxBuckets caps the first-symbol counting sort's table; a larger alphabet
// is bucketed by its high bits, which keeps bucket order symbol order.
const maxBuckets = 1 << 16

// sortSuffixes is phase 1. It enumerates the suffixes to index — every
// position of every listed sequence, only run heads when sparse, only those
// at least minLen long — deals them into buckets by first symbol with a
// counting sort, and sorts the buckets concurrently on up to GOMAXPROCS
// goroutines, each filling its own stretch of lcp. The sorted order of
// distinct strings is unique, so scheduling cannot show in the result.
func (b *builder) sortSuffixes(seqs []int, sparse bool, minLen int) error {
	each := func(visit func(s suffix, first Symbol)) {
		for _, seq := range seqs {
			t := b.store.Text(seq)
			for pos := 0; pos < len(t) && len(t)-pos >= minLen; pos++ {
				if !sparse || pos == 0 || t[pos] != t[pos-1] {
					visit(suffix{int32(seq), int32(pos)}, t[pos])
				}
			}
		}
	}
	n, maxSym := 0, Symbol(0)
	each(func(_ suffix, first Symbol) {
		n++
		maxSym = max(maxSym, first)
	})
	shift := max(0, bits.Len32(uint32(maxSym))-bits.Len32(maxBuckets-1))
	start := make([]int, int(maxSym>>shift)+2) // start[k+1] counts bucket k, then becomes its end
	each(func(_ suffix, first Symbol) { start[int(first>>shift)+1]++ })
	for k := 1; k < len(start); k++ {
		start[k] += start[k-1]
	}
	b.sa, b.lcp = make([]suffix, n), make([]int32, n)
	next := append([]int(nil), start...)
	each(func(s suffix, first Symbol) {
		k := int(first >> shift)
		b.sa[next[k]] = s
		next[k]++
	})

	// A bucket shares its first symbol unless high bits alone chose it.
	depth := int32(1)
	if shift > 0 {
		depth = 0
	}
	workers := min(runtime.GOMAXPROCS(0), len(start)-1)
	errs := make([]error, workers)
	var cursor atomic.Int64 // buckets differ in size, so workers pull the next one
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := int(cursor.Add(1)); k < len(start) && errs[w] == nil; k = int(cursor.Add(1)) {
				errs[w] = b.sortRange(start[k-1], start[k], depth)
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// sortRange sorts sa[lo:hi], whose suffixes share their first d symbols,
// and fills lcp[lo+1:hi]. It is a multikey quicksort: a three-way partition
// on symbol d, the outer parts sorted recursively at d and the equal part
// continued at d+1. A partition boundary is exactly an adjacent pair whose
// common prefix is d, so the LCPs fall out alongside. An equal part on a
// terminator is one suffix unless a sequence is listed twice.
func (b *builder) sortRange(lo, hi int, d int32) error {
	sa := b.sa
	for hi-lo > 1 {
		x, y, z := b.sym(sa[lo], d), b.sym(sa[lo+(hi-lo)/2], d), b.sym(sa[hi-1], d)
		pivot := max(min(x, y), min(max(x, y), z)) // median of three
		lt, gt := lo, hi                           // sa[lo:lt] < pivot, sa[lt:i] == pivot, sa[gt:hi] > pivot
		for i := lo; i < gt; {
			switch k := b.sym(sa[i], d); {
			case k < pivot:
				sa[lt], sa[i] = sa[i], sa[lt]
				lt++
				i++
			case k > pivot:
				gt--
				sa[gt], sa[i] = sa[i], sa[gt]
			default:
				i++
			}
		}
		if lt > lo {
			b.lcp[lt] = d
			if err := b.sortRange(lo, lt, d); err != nil {
				return err
			}
		}
		if gt < hi {
			b.lcp[gt] = d
			if err := b.sortRange(gt, hi, d); err != nil {
				return err
			}
		}
		if pivot < 0 && gt-lt > 1 {
			return &DuplicateSuffixError{Seq: int(sa[lt].seq), Pos: int(sa[lt].pos)}
		}
		lo, hi, d = lt, gt, d+1
	}
	return nil
}

// openNode is an internal node whose subtree is still being streamed.
type openNode struct {
	lead  suffix // leftmost suffix below; the node's label references it
	depth int32  // symbols on the path from the root
	kids  int    // mark of its first entry on the writer's stack
}

// stream is phase 2: one walk over the sorted suffixes with the stack of
// open nodes on the path to the current one. Between suffix i and suffix
// i+1 the tree branches at depth lcp[i+1]: leaf i and every open node
// deeper than that are complete and are written — children first, so a
// parent's child table holds real offsets. A record's label starts at its
// parent's depth, which is why a leaf is written only once the next lcp
// says where its parent is. It returns the root's offset.
func (b *builder) stream() (Ptr, error) {
	b.open = append(b.open, openNode{})
	for i, leaf := range b.sa {
		branch := int32(0) // after the last suffix everything closes
		if i+1 < len(b.sa) {
			branch = b.lcp[i+1]
		}
		if err := b.closeTo(leaf, branch); err != nil {
			return NilPtr, err
		}
	}
	return b.write(suffix{}, 0, 0, false, 0)
}

// closeTo writes leaf and every open node deeper than branch, leaving an
// open node at exactly depth branch on top of the stack: where none sits
// there, one is opened and adopts the subtree just closed as its first
// child.
func (b *builder) closeTo(leaf suffix, branch int32) error {
	if branch > b.open[len(b.open)-1].depth {
		b.open = append(b.open, openNode{lead: leaf, depth: branch, kids: len(b.w.kids)})
	}
	// The leaf's path ends with its terminator.
	end := int32(len(b.store.Text(int(leaf.seq)))) - leaf.pos + 1
	if err := b.attach(leaf, end, true, len(b.w.kids)); err != nil {
		return err
	}
	for b.open[len(b.open)-1].depth > branch {
		top := b.open[len(b.open)-1]
		b.open = b.open[:len(b.open)-1]
		if b.open[len(b.open)-1].depth < branch {
			b.open = append(b.open, openNode{lead: top.lead, depth: branch, kids: top.kids})
		}
		if err := b.attach(top.lead, top.depth, false, top.kids); err != nil {
			return err
		}
	}
	return nil
}

// attach writes the node that ends at depth on lead's path — its label
// starts at the depth of the open node on top of the stack, its parent; its
// children are the entries from the mark kids on — and replaces those
// entries with the node's own in the parent's child table.
func (b *builder) attach(lead suffix, depth int32, leaf bool, kids int) error {
	from := b.open[len(b.open)-1].depth
	ptr, err := b.write(lead, from, depth, leaf, kids)
	if err != nil {
		return err
	}
	b.w.attach(b.sym(lead, from), ptr)
	return nil
}

// write emits the record of the node spanning symbols [from, to) of lead's
// path, its child entries those from the mark kids on.
func (b *builder) write(lead suffix, from, to int32, leaf bool, kids int) (Ptr, error) {
	n := &b.node
	n.LabelSeq, n.LabelStart, n.LabelLen = lead.seq, lead.pos+from, to-from
	n.Leaf = leaf
	if leaf {
		n.Pos = lead.pos
		n.RunLen = int32(categorize.RunLengthAt(b.store.Text(int(lead.seq)), int(lead.pos)))
	}
	return b.w.emit(n, kids)
}
