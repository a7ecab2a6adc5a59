package disktree

import (
	"fmt"
	"math"
	"math/bits"
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
	// Encoding selects the record serialization (v2 compact varints by
	// default; v1 fixed-width).
	Encoding Encoding
}

// BuildStats describes one construction run and where its time went.
type BuildStats struct {
	// Suffixes is the number of suffixes indexed (the tree's leaf count),
	// Nodes the number of node records written.
	Suffixes, Nodes int
	// Sorting and writing overlap. SortElapsed runs from the start of the
	// build — enumerating the suffixes included — until the last bucket is
	// sorted; WriteElapsed from the first record streamed out until the file
	// is synced; Elapsed covers both, and is less than their sum by the
	// overlap.
	SortElapsed, WriteElapsed, Elapsed time.Duration
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
// page written once. The three stages overlap: the suffixes are sorted
// bucket by bucket on up to GOMAXPROCS goroutines, the walk streams each
// bucket's records out as soon as it and those before it are sorted, and a
// flusher goroutine writes each full chunk of pages while the next fills.
// Terminated suffixes are prefix-free, so they have exactly one compacted
// trie: the result is the tree the paper's series of binary merges produces
// (suffixtree.BuildMergedFiltered, the reference this is tested against).
// Beside the text store, construction holds 8 bytes per indexed suffix plus
// the child tables of the nodes open on the current root-to-leaf path. The
// file is committed with storage.CommitPath, so a failed build leaves the
// directory as it found it. The bytes do not depend on GOMAXPROCS. Build
// opens nothing: readers open the finished file with Open or OpenBackend.
func Build(store *suffixtree.TextStore, seqs []int, outPath string, opts BuildOptions) (stats BuildStats, err error) {
	err = storage.CommitPath(outPath, func(tmp string) error {
		pf, err := storage.CreateFile(tmp)
		if err != nil {
			return err
		}
		if stats, err = buildOn(pf, store, seqs, opts); err != nil {
			return err
		}
		return pf.Close()
	})
	return stats, err
}

// buildOn builds onto the freshly created pf, which it leaves open after a
// success and closes after a failure.
func buildOn(pf *storage.File, store *suffixtree.TextStore, seqs []int, opts BuildOptions) (BuildStats, error) {
	return buildWith(newTreeWriter(pf, meta{sparse: opts.Sparse, minSuffixLen: lengthFilter(opts.MinSuffixLen), enc: opts.Encoding}), store, seqs, opts)
}

// buildWith is buildOn through a writer the caller made. Every goroutine the
// build starts has exited when it returns.
func buildWith(w *treeWriter, store *suffixtree.TextStore, seqs []int, opts BuildOptions) (BuildStats, error) {
	b := &builder{w: w, started: time.Now()}
	b.flat, b.starts = store.Flat()
	if err := w.write(func() (Ptr, error) { return b.run(seqs, opts.Sparse, opts.MinSuffixLen) }); err != nil {
		return BuildStats{}, err
	}
	done := time.Now()
	return BuildStats{
		Suffixes: len(b.sa), Nodes: int(w.meta.nodes),
		SortElapsed: b.sorted.Sub(b.started), WriteElapsed: done.Sub(b.streaming), Elapsed: done.Sub(b.started),
	}, nil
}

// builder holds the suffix list the stages share: sa, the indexed suffix
// starts as positions in flat, in symbol-string order once sorted, and
// lcp[i], the number of leading symbols sa[i] shares with sa[i-1] (0 at the
// start of a bucket). Terminators are negative, so they order before every
// category and among themselves by -(seq+1); every suffix ends in its own,
// so a comparison never reads past one.
type builder struct {
	flat   []Symbol // the store's texts end to end, terminators inline
	starts []int    // where each text starts in flat, and flat's length
	w      *treeWriter
	sa     []int32
	lcp    []int32
	// block[i] is the sequence flat position i<<blockShift lies in: where
	// seqOf starts looking.
	block []int32

	// Stream state: the open nodes on the path to the current suffix; the
	// child entries they have collected so far are on the writer's stack.
	open []openNode
	node Node

	// When the build started, when the last bucket was sorted and when the
	// first record was streamed out.
	started, sorted, streaming time.Time
}

const (
	// maxBuckets caps the first-symbol counting sort's table; a larger
	// alphabet is bucketed by its high bits, which keeps bucket order symbol
	// order.
	maxBuckets = 1 << 16
	// taskShare is how many sort tasks the suffixes are cut into at least,
	// where the buckets allow: small enough tasks that the first is sorted
	// — and streaming starts — early and the workers finish together, few
	// enough that handing them out costs nothing.
	taskShare = 256
	// blockShift sets the grain of the position-to-sequence table: one entry
	// per 128 symbols.
	blockShift = 7
)

// task is a run of whole buckets — start[from] to start[to] of sa — sorted
// by one worker and streamed in one piece.
type task struct{ from, to int }

// run is the build between the writer's start and finish: deal the suffixes
// into buckets, sort the buckets on the workers, stream the records out as
// the buckets arrive. It returns the root's offset.
func (b *builder) run(seqs []int, sparse bool, minLen int) (Ptr, error) {
	start, depth, err := b.deal(seqs, sparse, minLen)
	if err != nil {
		return NilPtr, err
	}
	// Buckets differ in size, so consecutive small ones share a task.
	var tasks []task
	for k, grain := 0, len(b.sa)/taskShare; k < len(start)-1; {
		from := k
		for k++; k < len(start)-1 && start[k]-start[from] < grain; k++ {
		}
		tasks = append(tasks, task{from, k})
	}

	ready := make(chan int, len(tasks)) // one send per task: a worker never waits for the streamer
	errs := make([]error, len(tasks))   // errs[t] is written before t is sent
	var cursor atomic.Int64             // tasks differ in cost, so workers pull the next one
	var unsorted atomic.Int64
	unsorted.Store(int64(len(tasks)))
	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := min(runtime.GOMAXPROCS(0), len(tasks)); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for t := int(cursor.Add(1)) - 1; t < len(tasks) && !stop.Load(); t = int(cursor.Add(1)) - 1 {
				for k := tasks[t].from; k < tasks[t].to && errs[t] == nil; k++ {
					errs[t] = b.sortRange(start[k], start[k+1], depth)
				}
				if unsorted.Add(-1) == 0 {
					b.sorted = time.Now() // read once the workers are joined
				}
				ready <- t
				// The streamer this may have woken is the serial stage: let
				// it run now, not when this goroutine's time slice ends.
				runtime.Gosched()
			}
		}()
	}
	root, err := b.stream(start, tasks, ready, errs)
	stop.Store(true)
	wg.Wait()
	return root, err
}

// deal enumerates the suffixes to index — every position of every listed
// sequence, only run heads when sparse, only those at least minLen long —
// and deals them into buckets by first symbol with a counting sort. Bucket k
// is sa[start[k]:start[k+1]]; its suffixes share their first depth symbols.
func (b *builder) deal(seqs []int, sparse bool, minLen int) (start []int, depth int32, err error) {
	if len(b.flat) > math.MaxInt32 {
		return nil, 0, fmt.Errorf("disktree: %d symbols in the store, a tree file references at most %d", len(b.flat), math.MaxInt32)
	}
	b.block = make([]int32, (len(b.flat)+1<<blockShift-1)>>blockShift)
	for i, seq := 0, 0; i < len(b.block); i++ {
		for b.starts[seq+1] <= i<<blockShift {
			seq++
		}
		b.block[i] = int32(seq)
	}

	most := 0
	for _, seq := range seqs {
		most += b.starts[seq+1] - 1 - b.starts[seq]
	}
	order, maxSym := make([]int32, 0, most), Symbol(0)
	for _, seq := range seqs {
		first := b.starts[seq]
		for p, end := first, b.starts[seq+1]-max(minLen, 1); p < end; p++ {
			if sym := b.flat[p]; !sparse || p == first || sym != b.flat[p-1] {
				order = append(order, int32(p))
				maxSym = max(maxSym, sym)
			}
		}
	}
	shift := max(0, bits.Len32(uint32(maxSym))-bits.Len32(maxBuckets-1))
	start = make([]int, int(maxSym>>shift)+2) // start[k+1] counts bucket k, then becomes its end
	for _, p := range order {
		start[int(b.flat[p]>>shift)+1]++
	}
	for k := 1; k < len(start); k++ {
		start[k] += start[k-1]
	}
	b.sa = make([]int32, len(order))
	next := append([]int(nil), start...)
	for _, p := range order {
		k := int(b.flat[p] >> shift)
		b.sa[next[k]] = p
		next[k]++
	}
	// The enumeration has served; its array becomes lcp. A sort fills in
	// everything but the first entry of its bucket, which is the constant 0:
	// neighbouring buckets differ in their first symbol.
	b.lcp = order
	for _, at := range start[:len(start)-1] {
		if at < len(b.lcp) {
			b.lcp[at] = 0
		}
	}
	// A bucket shares its first symbol unless high bits alone chose it.
	if shift == 0 {
		depth = 1
	}
	return start, depth, nil
}

// seqOf returns the sequence whose text (or terminator) flat position p
// lies in.
func (b *builder) seqOf(p int32) int32 {
	seq := b.block[p>>blockShift]
	for b.starts[seq+1] <= int(p) {
		seq++
	}
	return seq
}

// sortRange sorts sa[lo:hi], whose suffixes share their first d symbols,
// and fills lcp[lo+1:hi]. It is a multikey quicksort: a three-way partition
// on symbol d, the outer parts sorted recursively at d and the equal part
// continued at d+1. A partition boundary is exactly an adjacent pair whose
// common prefix is d, so the LCPs fall out alongside. An equal part on a
// terminator is one suffix unless a sequence is listed twice.
func (b *builder) sortRange(lo, hi int, d int32) error {
	sa, flat := b.sa, b.flat
	for hi-lo > 1 {
		x, y, z := flat[sa[lo]+d], flat[sa[lo+(hi-lo)/2]+d], flat[sa[hi-1]+d]
		pivot := max(min(x, y), min(max(x, y), z)) // median of three
		lt, gt := lo, hi                           // sa[lo:lt] < pivot, sa[lt:i] == pivot, sa[gt:hi] > pivot
		for i := lo; i < gt; {
			switch k := flat[sa[i]+d]; {
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
			seq := b.seqOf(sa[lt])
			return &DuplicateSuffixError{Seq: int(seq), Pos: int(sa[lt]) - b.starts[seq]}
		}
		lo, hi, d = lt, gt, d+1
	}
	return nil
}

// openNode is an internal node whose subtree is still being streamed.
type openNode struct {
	lead  int32 // leftmost suffix below, a position in flat; the node's label references it
	seq   int32 // the sequence lead lies in
	depth int32 // symbols on the path from the root
	kids  int   // mark of its first entry on the writer's stack
}

// stream walks the sorted suffixes, task by task as the workers report them
// sorted, with the stack of open nodes on the path to the current one.
// Between suffix i and suffix i+1 the tree branches at depth lcp[i+1]: leaf
// i and every open node deeper than that are complete and are written —
// children first, so a parent's child table holds real offsets. A record's
// label starts at its parent's depth, which is why a leaf is written only
// once the next lcp says where its parent is — and the lcp across a task's
// end is 0 before anything is sorted, so no task waits for the next. It
// returns the root's offset, or the error of the first task, in order, that
// failed.
func (b *builder) stream(start []int, tasks []task, ready <-chan int, errs []error) (Ptr, error) {
	b.open = append(b.open, openNode{})
	sorted := make([]bool, len(tasks))
	for t, task := range tasks {
		for !sorted[t] {
			sorted[<-ready] = true
		}
		if errs[t] != nil {
			return NilPtr, errs[t]
		}
		if t == 0 {
			b.streaming = time.Now()
		}
		for i := start[task.from]; i < start[task.to]; i++ {
			branch := int32(0) // after the last suffix everything closes
			if i+1 < len(b.sa) {
				branch = b.lcp[i+1]
			}
			if err := b.closeTo(b.sa[i], branch); err != nil {
				return NilPtr, err
			}
		}
	}
	return b.write(0, 0, 0, 0, false, 0)
}

// closeTo writes leaf and every open node deeper than branch, leaving an
// open node at exactly depth branch on top of the stack: where none sits
// there, one is opened and adopts the subtree just closed as its first
// child.
func (b *builder) closeTo(leaf, branch int32) error {
	seq := b.seqOf(leaf)
	if branch > b.open[len(b.open)-1].depth {
		b.open = append(b.open, openNode{lead: leaf, seq: seq, depth: branch, kids: len(b.w.kids)})
	}
	// The leaf's path ends with its terminator.
	end := int32(b.starts[seq+1]) - leaf
	if err := b.attach(leaf, seq, end, true, len(b.w.kids)); err != nil {
		return err
	}
	for b.open[len(b.open)-1].depth > branch {
		top := b.open[len(b.open)-1]
		b.open = b.open[:len(b.open)-1]
		if b.open[len(b.open)-1].depth < branch {
			b.open = append(b.open, openNode{lead: top.lead, seq: top.seq, depth: branch, kids: top.kids})
		}
		if err := b.attach(top.lead, top.seq, top.depth, false, top.kids); err != nil {
			return err
		}
	}
	return nil
}

// attach writes the node that ends at depth on lead's path — its label
// starts at the depth of the open node on top of the stack, its parent; its
// children are the entries from the mark kids on — and replaces those
// entries with the node's own in the parent's child table.
func (b *builder) attach(lead, seq, depth int32, leaf bool, kids int) error {
	from := b.open[len(b.open)-1].depth
	ptr, err := b.write(lead, seq, from, depth, leaf, kids)
	if err != nil {
		return err
	}
	b.w.attach(b.flat[lead+from], ptr)
	return nil
}

// write emits the record of the node spanning symbols [from, to) of the path
// of lead, a suffix of sequence seq, its child entries those from the mark
// kids on.
func (b *builder) write(lead, seq, from, to int32, leaf bool, kids int) (Ptr, error) {
	n := &b.node
	pos := lead - int32(b.starts[seq])
	n.LabelSeq, n.LabelStart, n.LabelLen = seq, pos+from, to-from
	n.Leaf = leaf
	if leaf {
		n.Pos = pos
		// The run ends at the terminator at the latest, so flat serves as
		// the text.
		n.RunLen = int32(categorize.RunLengthAt(b.flat, int(lead)))
	}
	return b.w.emit(n, kids)
}
