package multivar

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"twsearch/internal/categorize"
	"twsearch/internal/disktree"
	"twsearch/internal/dtw"
	"twsearch/internal/pending"
	"twsearch/internal/storage"
	"twsearch/internal/suffixtree"
)

// Ref identifies the subsequence Points[Start:End] of sequence Seq.
type Ref struct {
	Seq, Start, End int
}

// Match is an answer subsequence with its exact multivariate time warping
// distance.
type Match struct {
	Ref      Ref
	Distance float64
}

// Stats mirrors core.SearchStats for the multivariate engine. Under a
// parallel search each worker counts on its own pooled context and the
// driver sums them at the join barrier.
//
//twlint:join-merged
type Stats struct {
	NodesVisited uint64
	FilterCells  uint64
	PostCells    uint64
	Candidates   uint64
	FalseAlarms  uint64
	Answers      uint64
	// EnvelopePruned counts edge rows cut by the envelope cascade before
	// their table row was computed; LBCells counts its gap evaluations (one
	// per examined row — each sums the per-dimension gaps). Both are exact
	// under parallelism, like the other traversal counters.
	EnvelopePruned uint64
	LBCells        uint64
	Elapsed        time.Duration
}

// Options configures a multivariate index build.
type Options struct {
	// Kind is the per-dimension categorization method (default ME).
	Kind categorize.Kind
	// CatsPerDim is the per-dimension category count (default 8).
	CatsPerDim int
	// Sparse selects the sparse suffix tree.
	Sparse bool
	// Window is the Sakoe–Chiba warping-window half-width; <= 0 means
	// unconstrained.
	Window int
	// MinAnswerLen, when > 1, skips suffixes shorter than this at build
	// time and restricts answers to at least this length.
	MinAnswerLen int
	// Build tunes the disk pipeline.
	Build disktree.BuildOptions
}

// Index is the multivariate suffix-tree index. Like core.Index it is
// immutable at query time with per-query state pooled, so one handle serves
// concurrent searches.
type Index struct {
	Data  *Dataset
	Grid  *GridScheme
	Store *suffixtree.TextStore
	Tree  *disktree.File
	// Window is the warping-window half-width, or -1.
	Window int
	// DisableEnvelopes turns off the per-dimension envelope row prefilter;
	// like the univariate flag it changes only the work done, never the
	// answers. (The multivariate engine has no subtree-hull tier: grid cell
	// symbols order cells lexicographically, not by value, so a persisted
	// [MinSym, MaxSym] span would not bound the cells' value boxes.)
	DisableEnvelopes bool
	maxRun           int
	minAnswerLen     int

	seqOffsets    []int
	totalElements int
	// queries recycles per-query msearcher state; behind a pointer so Dup's
	// shallow copy shares the pool instead of copying a sync.Pool.
	queries *mqueryPool
}

// Build fits the grid, encodes every sequence to cell symbols, and builds
// the disk-based suffix tree at path.
func Build(data *Dataset, path string, opts Options) (*Index, error) {
	if opts.Kind == "" {
		opts.Kind = categorize.KindMaxEntropy
	}
	if opts.CatsPerDim == 0 {
		opts.CatsPerDim = 8
	}
	if opts.Window <= 0 {
		opts.Window = -1
	}
	opts.Build.Sparse = opts.Sparse
	opts.Build.MinSuffixLen = opts.MinAnswerLen
	grid, err := FitGrid(data, opts.Kind, opts.CatsPerDim)
	if err != nil {
		return nil, err
	}
	store := suffixtree.NewTextStore()
	maxRun := 1
	for i := 0; i < data.Len(); i++ {
		syms, err := grid.Encode(data.Points(i))
		if err != nil {
			return nil, fmt.Errorf("multivar: encoding %q: %w", data.Seq(i).ID, err)
		}
		store.Add(syms)
		run := 1
		for j := 1; j < len(syms); j++ {
			if syms[j] == syms[j-1] {
				run++
				if run > maxRun {
					maxRun = run
				}
			} else {
				run = 1
			}
		}
	}
	seqs := make([]int, data.Len())
	for i := range seqs {
		seqs[i] = i
	}
	tree, err := disktree.Build(store, seqs, path, opts.Build)
	if err != nil {
		return nil, err
	}
	ix := &Index{
		Data: data, Grid: grid, Store: store, Tree: tree,
		Window: opts.Window, maxRun: maxRun, minAnswerLen: tree.MinSuffixLen(),
	}
	ix.computeOffsets()
	return ix, nil
}

// Open attaches an existing multivariate tree file to its dataset and grid.
// window <= 0 disables the warping-window constraint.
func Open(data *Dataset, grid *GridScheme, treePath string, poolPages, window int) (*Index, error) {
	return OpenWith(data, grid, treePath, poolPages, window, storage.BackendPool)
}

// OpenWith is Open with an explicit page-source backend for the tree file.
func OpenWith(data *Dataset, grid *GridScheme, treePath string, poolPages, window int, backend storage.Backend) (*Index, error) {
	if poolPages <= 0 {
		poolPages = 256
	}
	if window <= 0 {
		window = -1
	}
	tree, err := disktree.OpenBackend(treePath, poolPages, true, backend)
	if err != nil {
		return nil, err
	}
	store := suffixtree.NewTextStore()
	maxRun := 1
	for i := 0; i < data.Len(); i++ {
		syms, err := grid.Encode(data.Points(i))
		if err != nil {
			tree.Close()
			return nil, fmt.Errorf("multivar: re-encoding %q: %w", data.Seq(i).ID, err)
		}
		store.Add(syms)
		run := 1
		for j := 1; j < len(syms); j++ {
			if syms[j] == syms[j-1] {
				run++
				if run > maxRun {
					maxRun = run
				}
			} else {
				run = 1
			}
		}
	}
	ix := &Index{
		Data: data, Grid: grid, Store: store, Tree: tree,
		Window: window, maxRun: maxRun, minAnswerLen: tree.MinSuffixLen(),
	}
	ix.computeOffsets()
	return ix, nil
}

func (ix *Index) computeOffsets() {
	ix.seqOffsets = make([]int, ix.Data.Len())
	off := 0
	for i := 0; i < ix.Data.Len(); i++ {
		ix.seqOffsets[i] = off
		off += len(ix.Data.Points(i))
	}
	ix.totalElements = off
	ix.queries = &mqueryPool{}
}

// MinAnswerLen returns the answer length floor the index was built with.
func (ix *Index) MinAnswerLen() int { return ix.minAnswerLen }

// Close releases the tree file.
func (ix *Index) Close() error { return ix.Tree.Close() }

// Search returns every subsequence within time warping distance eps of the
// vector query q — the multivariate SimSearch, with no false dismissals.
func (ix *Index) Search(q [][]float64, eps float64) ([]Match, Stats, error) {
	return ix.search(q, eps, nil)
}

// SearchVisit streams answers to fn (unordered); returning false stops the
// search early.
func (ix *Index) SearchVisit(q [][]float64, eps float64, fn func(Match) bool) (Stats, error) {
	if fn == nil {
		return Stats{}, errors.New("multivar: nil visitor")
	}
	_, stats, err := ix.search(q, eps, fn)
	return stats, err
}

func (ix *Index) search(q [][]float64, eps float64, visit func(Match) bool) ([]Match, Stats, error) {
	if len(q) == 0 {
		return nil, Stats{}, errors.New("multivar: empty query")
	}
	for i, p := range q {
		if len(p) != ix.Data.Dim() {
			return nil, Stats{}, fmt.Errorf("multivar: query point %d has %d dims, want %d", i, len(p), ix.Data.Dim())
		}
	}
	if eps < 0 {
		return nil, Stats{}, errors.New("multivar: negative distance threshold")
	}
	started := time.Now()
	s := ix.queries.acquire(ix, q, eps, visit)
	defer ix.queries.release(s)
	root := s.node(0)
	if err := s.rd.ReadNodeInto(ix.Tree.Root(), root); err != nil {
		return nil, Stats{}, err
	}
	s.stats.NodesVisited++
	for i := range root.Children {
		if s.stopped {
			break
		}
		if err := s.processEdge(root.Children[i].Ptr, 1, false, 0); err != nil {
			return nil, Stats{}, err
		}
	}
	s.postProcess()
	s.stats.FilterCells = s.table.Cells()
	s.stats.PostCells = s.post.Cells()
	s.stats.Elapsed = time.Since(started)
	sortMatches(s.matches)
	matches := s.matches
	s.matches = nil // ownership transfers to the caller; release must not pool it
	return matches, s.stats, nil
}

// mqueryPool recycles per-query msearcher state across the searches of one
// (shared-pool family of) index handle; see core's queryPool for the
// immutable-index/pooled-context argument.
type mqueryPool struct {
	p sync.Pool
}

// acquire returns an msearcher bound to this query, reusing a pooled one's
// allocations when available; release it when the search finishes.
//
//twlint:pool-transfer the msearcher is handed to the caller; release returns it via qp.p.Put
func (qp *mqueryPool) acquire(ix *Index, q [][]float64, eps float64, visit func(Match) bool) *msearcher {
	s, _ := qp.p.Get().(*msearcher)
	if s == nil {
		s = &msearcher{}
	}
	// Mirror of core's sparse+window handling: the D_tw-lb2 shift is
	// misaligned with a band on the shared filter table, so sparse indexes
	// filter unconstrained (still a lower bound) and the banded
	// post-processing enforces the exact semantics.
	filterWindow := ix.Window
	sparse := ix.Tree.Sparse()
	if sparse && ix.Window >= 0 {
		filterWindow = -1
	}
	s.ix = ix
	s.rd.Reset(ix.Tree)
	s.q = q
	s.eps = eps
	s.sparse = sparse
	s.visit = visit
	s.stopped = false
	s.stats = Stats{}
	s.matches = nil
	s.firstSym = 0
	s.base0 = 0
	s.spawnLevel = 0
	s.extStop = nil
	s.readAhead = false
	if s.table == nil {
		s.table = NewTableWindow(q, filterWindow)
		s.post = NewTableWindow(q, ix.Window)
	} else {
		s.table.Bind(q, filterWindow)
		s.post.Bind(q, ix.Window)
	}
	s.pend.Reset(ix.totalElements)

	// Per-dimension envelopes under the filter window; the coordinate
	// series and envelope storage are pooled with the msearcher.
	s.envOn = !ix.DisableEnvelopes
	if s.envOn {
		dim := ix.Data.Dim()
		for len(s.envs) < dim {
			s.envs = append(s.envs, dtw.Envelope{})
			s.qDim = append(s.qDim, nil)
		}
		for k := 0; k < dim; k++ {
			qd := s.qDim[k][:0]
			for _, p := range q {
				qd = append(qd, p[k])
			}
			s.qDim[k] = qd
			s.envs[k].Bind(qd, filterWindow)
		}
	}
	if len(s.envSums) == 0 {
		s.envSums = append(s.envSums, 0)
	}
	s.envSums[0] = 0
	s.envBase0 = 0
	return s
}

// release returns an msearcher to the pool, unpinning the page its reader
// still holds and dropping caller-owned refs.
func (qp *mqueryPool) release(s *msearcher) {
	s.rd.Reset(nil)
	s.ix = nil
	s.visit = nil
	s.matches = nil
	s.tasks = nil // tasks reference forked tables; don't pin them in the pool
	s.extStop = nil
	qp.p.Put(s)
}

// SeqScan is the multivariate sequential-scanning baseline and ground
// truth: exact distances for every suffix, early-abandoned by Theorem 1.
// window < 0 disables the warping-window constraint.
func SeqScan(data *Dataset, q [][]float64, eps float64, window int) ([]Match, Stats, error) {
	return seqScan(data, q, eps, window, true)
}

// SeqScanFull is the paper's no-abandon baseline, multivariate.
func SeqScanFull(data *Dataset, q [][]float64, eps float64, window int) ([]Match, Stats, error) {
	return seqScan(data, q, eps, window, false)
}

func seqScan(data *Dataset, q [][]float64, eps float64, window int, abandon bool) ([]Match, Stats, error) {
	if len(q) == 0 {
		return nil, Stats{}, errors.New("multivar: empty query")
	}
	started := time.Now()
	table := NewTableWindow(q, window)
	var matches []Match
	var stats Stats
	for seq := 0; seq < data.Len(); seq++ {
		points := data.Points(seq)
		for p := 0; p < len(points); p++ {
			table.Truncate(0)
			for r := p; r < len(points); r++ {
				dist, minDist := table.AddRowPoint(points[r])
				if dist <= eps {
					matches = append(matches, Match{Ref: Ref{Seq: seq, Start: p, End: r + 1}, Distance: dist})
				}
				if abandon && minDist > eps {
					break
				}
			}
		}
	}
	stats.FilterCells = table.Cells()
	stats.Answers = uint64(len(matches))
	stats.Elapsed = time.Since(started)
	sortMatches(matches)
	return matches, stats, nil
}

// SearchKNN returns the k nearest subsequences under the multivariate time
// warping distance, by the same complete threshold expansion as the
// univariate engine.
func (ix *Index) SearchKNN(q [][]float64, k int) ([]Match, Stats, error) {
	return ix.searchKNN(q, k, SearchOptions{})
}

func (ix *Index) searchKNN(q [][]float64, k int, opts SearchOptions) ([]Match, Stats, error) {
	if k <= 0 {
		return nil, Stats{}, errors.New("multivar: k must be positive")
	}
	if len(q) == 0 {
		return nil, Stats{}, errors.New("multivar: empty query")
	}
	eps := 0.0
	for i := 1; i < len(q); i++ {
		eps += Base(q[i], q[i-1])
	}
	eps = eps/float64(len(q)) + 1e-9
	var total Stats
	for {
		matches, stats, err := ix.SearchOpts(q, eps, opts)
		total.FilterCells += stats.FilterCells
		total.PostCells += stats.PostCells
		total.Candidates += stats.Candidates
		total.NodesVisited += stats.NodesVisited
		total.Elapsed += stats.Elapsed
		if err != nil {
			return nil, total, err
		}
		if len(matches) >= k || eps > 1e18 {
			sort.SliceStable(matches, func(i, j int) bool {
				return matches[i].Distance < matches[j].Distance
			})
			if len(matches) > k {
				matches = matches[:k]
			}
			sortMatches(matches)
			total.Answers = uint64(len(matches))
			return matches, total, nil
		}
		eps *= 4
	}
}

type msearcher struct {
	ix     *Index
	q      [][]float64
	eps    float64
	table  *Table
	post   *Table
	sparse bool

	stats   Stats
	matches []Match

	nodes        []*disktree.Node
	collectNodes []*disktree.Node
	// rd reads every node of the traversal; release closes it (see core's
	// searcher).
	rd disktree.Reader

	firstSym suffixtree.Symbol
	base0    float64

	// The envelope cascade's row tier, per dimension: envs[k] is the
	// Sakoe–Chiba envelope of the query's k-th coordinate series under the
	// filter window (constant on sparse trees), qDim[k] its backing series.
	// envSums[d] is the running sum over the path's first d rows of the
	// per-dimension gap totals; envBase0 is the first row's total — the
	// per-shift discount unit for sparse candidates. See core.searcher for
	// the soundness argument; it transfers dimension-wise because both the
	// base distance and the envelope gap sum over dimensions independently.
	envs     []dtw.Envelope
	qDim     [][]float64
	envSums  []float64
	envBase0 float64
	envOn    bool

	// pend groups candidates by (seq, start) keeping the furthest end,
	// keyed by global element offset; post-processing scans each touched
	// start once (see core.searcher.postProcess for the argument). Its
	// backing arrays persist across queries via the pool.
	pend pending.Set

	// visit, when set, streams answers instead of accumulating them.
	visit   func(Match) bool
	stopped bool

	// Parallel-search hooks, mirroring core.searcher: spawnLevel > 0 makes
	// processEdge queue child subtrees as tasks instead of descending;
	// extStop is the search-wide stop flag shared by one query's workers;
	// readAhead batches child page fetches (workers only). See mparallel.go.
	spawnLevel int
	tasks      []mparTask
	extStop    *atomic.Bool
	readAhead  bool
}

// emit delivers one verified answer to the result slice or the visitor.
func (s *msearcher) emit(m Match) {
	if s.stopped {
		return
	}
	s.stats.Answers++
	if s.visit != nil {
		if !s.visit(m) {
			s.stopped = true
		}
		return
	}
	s.matches = append(s.matches, m)
}

func (s *msearcher) node(level int) *disktree.Node {
	for len(s.nodes) <= level {
		s.nodes = append(s.nodes, &disktree.Node{})
	}
	return s.nodes[level]
}

func (s *msearcher) collectNode(level int) *disktree.Node {
	for len(s.collectNodes) <= level {
		s.collectNodes = append(s.collectNodes, &disktree.Node{})
	}
	return s.collectNodes[level]
}

func (s *msearcher) processEdge(ptr disktree.Ptr, level int, runBroken bool, firstRun int) error {
	n := s.node(level)
	if err := s.rd.ReadNodeInto(ptr, n); err != nil {
		return err
	}
	s.stats.NodesVisited++
	// Poll the shared stop flag at the same thinned cadence core uses for
	// cancellation, so a visitor stop halts sibling workers promptly.
	if s.extStop != nil && s.stats.NodesVisited&63 == 0 && s.extStop.Load() {
		s.stopped = true
	}

	entryDepth := s.table.Depth()
	descend := true
	pendD := 0
	pendDist := dtw.Inf
	for i := 0; i < int(n.LabelLen); i++ {
		var sym suffixtree.Symbol
		if len(n.Label) > 0 {
			sym = n.Label[i]
		} else {
			sym = s.ix.Store.Sym(int(n.LabelSeq), int(n.LabelStart)+i)
		}
		if suffixtree.IsTerminator(sym) {
			descend = false
			break
		}
		box := s.ix.Grid.Box(sym)
		x := s.table.Depth()
		if x == 0 {
			s.firstSym = sym
			s.base0 = BaseBox(s.q[0], box)
			firstRun = 1
		} else if !runBroken {
			if sym == s.firstSym {
				firstRun++
			} else {
				runBroken = true
			}
		}

		// Envelope cascade, row tier: the per-dimension gap total extends
		// the LB_Keogh prefix sum, which lower-bounds every filter distance
		// at this depth or deeper (discounted per shifted-away leading-run
		// row on sparse trees); see core.searcher.processEdge.
		if s.envOn {
			g := 0.0
			for k := range s.envs {
				elo, ehi := s.envs[k].At(x)
				g += dtw.GapInterval(box.Lo[k], box.Hi[k], elo, ehi)
			}
			s.stats.LBCells++
			if x == 0 {
				s.envBase0 = g
			}
			newSum := s.envSums[x] + g
			envBound := newSum
			if s.sparse {
				j := firstRun - 1
				if !runBroken {
					j = s.ix.maxRun - 1
				}
				if j > 0 {
					envBound = newSum - float64(j)*s.envBase0
				}
			}
			if envBound > s.eps {
				s.stats.EnvelopePruned++
				descend = false
				break
			}
			if len(s.envSums) <= x+1 {
				s.envSums = append(s.envSums, 0)
			}
			s.envSums[x+1] = newSum
		}

		dist, minDist := s.table.AddRowBox(box)
		d := s.table.Depth()

		emitBound := dist
		if s.sparse && firstRun > 1 {
			emitBound = dist - float64(firstRun-1)*s.base0
		}
		if emitBound <= s.eps {
			pendD = d
			if dist < pendDist {
				pendDist = dist
			}
		}

		pruneBound := minDist
		if s.sparse {
			j := firstRun - 1
			if !runBroken {
				j = s.ix.maxRun - 1
			}
			if j > 0 {
				pruneBound = minDist - float64(j)*s.base0
			}
		}
		if pruneBound > s.eps {
			descend = false
			break
		}

		// Answer-length cutoff for sparse+window (see core).
		if s.sparse && s.ix.Window >= 0 {
			j := firstRun - 1
			if !runBroken {
				j = s.ix.maxRun - 1
			}
			if d-j > len(s.q)+s.ix.Window {
				descend = false
				break
			}
		}
	}

	if pendD > 0 {
		if err := s.collect(n, pendD, pendDist); err != nil {
			return err
		}
	}
	if descend && !n.Leaf && !s.stopped {
		if s.spawnLevel > 0 && level == s.spawnLevel {
			s.spawnSubtreeTasks(n, runBroken, firstRun)
		} else {
			if s.readAhead && len(n.Children) > 1 {
				s.ix.Tree.ReadAhead(n.Children)
			}
			for i := range n.Children {
				if s.stopped {
					break
				}
				if err := s.processEdge(n.Children[i].Ptr, level+1, runBroken, firstRun); err != nil {
					return err
				}
			}
		}
	}
	s.table.Truncate(entryDepth)
	return nil
}

func (s *msearcher) collect(n *disktree.Node, d int, dist float64) error {
	if n.Leaf {
		s.emitLeaf(n, d, dist)
		return nil
	}
	return s.collectChildren(n, 0, d, dist)
}

func (s *msearcher) collectChildren(n *disktree.Node, level, d int, dist float64) error {
	for i := range n.Children {
		c := s.collectNode(level)
		if err := s.rd.ReadNodeInto(n.Children[i].Ptr, c); err != nil {
			return err
		}
		if c.Leaf {
			s.emitLeaf(c, d, dist)
			continue
		}
		if err := s.collectChildren(c, level+1, d, dist); err != nil {
			return err
		}
	}
	return nil
}

func (s *msearcher) emitLeaf(leaf *disktree.Node, d int, dist float64) {
	seq := int(leaf.LabelSeq)
	pos := int(leaf.Pos)
	if dist <= s.eps {
		s.candidate(seq, pos, pos+d)
	}
	if !s.sparse {
		return
	}
	jMax := int(leaf.RunLen)
	if d < jMax {
		jMax = d
	}
	for j := 1; j < jMax; j++ {
		if dist-float64(j)*s.base0 <= s.eps {
			s.candidate(seq, pos+j, pos+d)
		}
	}
}

func (s *msearcher) candidate(seq, start, end int) {
	if end-start < s.ix.minAnswerLen {
		return
	}
	s.stats.Candidates++
	s.pend.Add(int32(s.ix.seqOffsets[seq]+start), int32(end))
}

func (s *msearcher) postProcess() {
	seq := 0
	for _, off := range s.pend.Sorted() {
		if s.stopped {
			break
		}
		for seq+1 < s.ix.Data.Len() && int(off) >= s.ix.seqOffsets[seq+1] {
			seq++
		}
		points := s.ix.Data.Points(seq)
		start := int(off) - s.ix.seqOffsets[seq]
		maxEnd := int(s.pend.MaxEnd(off))
		s.post.Truncate(0)
		for e := start; e < maxEnd && !s.stopped; e++ {
			dist, minDist := s.post.AddRowPoint(points[e])
			if dist <= s.eps && e+1-start >= s.ix.minAnswerLen {
				s.emit(Match{Ref: Ref{Seq: seq, Start: start, End: e + 1}, Distance: dist})
			}
			if minDist > s.eps {
				break
			}
		}
	}
	if s.stats.Candidates >= s.stats.Answers {
		s.stats.FalseAlarms = s.stats.Candidates - s.stats.Answers
	}
}

func sortMatches(ms []Match) {
	sort.Slice(ms, func(i, j int) bool {
		a, b := ms[i].Ref, ms[j].Ref
		if a.Seq != b.Seq {
			return a.Seq < b.Seq
		}
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		return a.End < b.End
	})
}

// Dup returns an independent handle on the same index file with its own
// buffer pool. An Index already serves concurrent searches; Dup remains for
// callers that want a private page cache. The duplicate shares the
// immutable dataset, grid, texts and query-context pool.
func (ix *Index) Dup(poolPages int) (*Index, error) {
	if poolPages <= 0 {
		poolPages = 256
	}
	tree, err := disktree.Open(ix.Tree.Path(), poolPages, true)
	if err != nil {
		return nil, err
	}
	dup := *ix
	dup.Tree = tree
	return &dup, nil
}
