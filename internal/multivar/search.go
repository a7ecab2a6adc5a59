package multivar

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"twsearch/internal/categorize"
	"twsearch/internal/core"
	"twsearch/internal/disktree"
	"twsearch/internal/sequence"
	"twsearch/internal/storage"
	"twsearch/internal/suffixtree"
)

// The multivariate search is core's traversal engine run over the vector
// kernel (kernel.go), so its result types are the engine's: a Ref
// identifies the subsequence Points[Start:End] of sequence Seq, a Match
// carries its exact multivariate time warping distance, Stats are the
// engine's work counters and SearchOptions its execution options.
type (
	Ref           = sequence.Ref
	Match         = core.Match
	Stats         = core.SearchStats
	SearchOptions = core.SearchOptions
)

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

// Index is the multivariate suffix-tree index: the vector dataset and its
// grid around core's Engine. Like core.Index it is immutable at query time
// with per-query state pooled, so one handle serves concurrent searches.
// (There is no subtree-hull tier to port: grid cell symbols order cells
// lexicographically, not by value, so a [MinSym, MaxSym] span would not
// bound the cells' value boxes.)
type Index struct {
	core.Engine
	Data *Dataset
	Grid *GridScheme
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
	grid, store, err := fitGrid(data, opts.Kind, opts.CatsPerDim)
	if err != nil {
		return nil, err
	}
	seqs := make([]int, data.Len())
	for i := range seqs {
		seqs[i] = i
	}
	tree, err := disktree.Build(store, seqs, path, opts.Build)
	if err != nil {
		return nil, err
	}
	return newIndex(data, grid, store, tree, opts.Window), nil
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
	store, err := encodeAll(data, grid)
	if err != nil {
		return nil, err
	}
	tree, err := disktree.OpenBackend(treePath, poolPages, true, backend)
	if err != nil {
		return nil, err
	}
	return newIndex(data, grid, store, tree, window), nil
}

// encodeAll turns every sequence into its cell-symbol text, the sequences
// shared out among up to GOMAXPROCS goroutines.
func encodeAll(data *Dataset, grid *GridScheme) (*suffixtree.TextStore, error) {
	texts := make([][]suffixtree.Symbol, data.Len())
	errs := make([]error, len(texts))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := min(runtime.GOMAXPROCS(0), len(texts)); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < len(texts); i = int(next.Add(1)) - 1 {
				texts[i], errs[i] = grid.Encode(data.Points(i))
			}
		}()
	}
	wg.Wait()
	store := suffixtree.NewTextStore()
	for i, text := range texts {
		if errs[i] != nil {
			return nil, fmt.Errorf("multivar: encoding %q: %w", data.Seq(i).ID, errs[i])
		}
		store.Add(text)
	}
	return store, nil
}

func newIndex(data *Dataset, grid *GridScheme, store *suffixtree.TextStore, tree *disktree.File, window int) *Index {
	return &Index{
		Engine: core.NewEngine(tree, store, window, func() core.Kernel { return &vectorKernel{data: data, grid: grid} }),
		Data:   data,
		Grid:   grid,
	}
}

// checkQuery refuses a vector query no search can answer: an empty one, a
// point of the wrong dimension, or a coordinate that is NaN or infinite —
// its distance to every subsequence would be NaN or +Inf, so the search
// would silently find nothing.
func checkQuery(q [][]float64, dim int) error {
	if len(q) == 0 {
		return errors.New("multivar: empty query")
	}
	for i, p := range q {
		if len(p) != dim {
			return fmt.Errorf("multivar: query point %d has %d dims, want %d", i, len(p), dim)
		}
		for _, v := range p {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("multivar: query point %d has coordinate %v, not a finite number", i, v)
			}
		}
	}
	return nil
}

// run is the typed front of the engine: it rejects what only this layer
// can see (an empty, mis-shaped or non-finite query) and supplies the bind
// that points a pooled vector kernel at q.
func (ix *Index) run(ctx context.Context, q [][]float64, eps float64, visit func(Match) bool, opts SearchOptions) ([]Match, Stats, error) {
	if err := checkQuery(q, ix.Data.Dim()); err != nil {
		return nil, Stats{}, err
	}
	return ix.Run(ctx, func(k core.Kernel, filterWindow, window int, envelopes bool) {
		k.(*vectorKernel).bind(q, filterWindow, window, eps, envelopes)
	}, eps, visit, opts)
}

// SearchOpts returns every subsequence within time warping distance eps of
// the vector query q — the multivariate SimSearch, with no false dismissals
// — sorted by (sequence, start, end). Cancellation and opts behave as in
// core.Index.SearchOpts: results are byte-identical at every parallelism.
func (ix *Index) SearchOpts(ctx context.Context, q [][]float64, eps float64, opts SearchOptions) ([]Match, Stats, error) {
	return ix.run(ctx, q, eps, nil, opts)
}

// SearchVisitOpts streams answers to fn instead of materializing them;
// returning false stops the search early. fn is always called from the
// calling goroutine, in the serial delivery order.
func (ix *Index) SearchVisitOpts(ctx context.Context, q [][]float64, eps float64, fn func(Match) bool, opts SearchOptions) (Stats, error) {
	if fn == nil {
		return Stats{}, errors.New("multivar: nil visitor")
	}
	_, stats, err := ix.run(ctx, q, eps, fn, opts)
	return stats, err
}

// SearchKNNOpts returns the k nearest subsequences under the multivariate
// time warping distance, by the same complete threshold expansion as the
// univariate index (core.RunKNN), each round one range search under opts.
func (ix *Index) SearchKNNOpts(ctx context.Context, q [][]float64, k int, opts SearchOptions) ([]Match, Stats, error) {
	if err := checkQuery(q, ix.Data.Dim()); err != nil {
		return nil, Stats{}, err
	}
	step := 0.0
	for i := 1; i < len(q); i++ {
		step += Base(q[i], q[i-1])
	}
	return core.RunKNN(ctx, k, step/float64(len(q)), func(m Match) float64 { return m.Distance }, func(ctx context.Context, eps float64) ([]Match, Stats, error) {
		return ix.run(ctx, q, eps, nil, opts)
	})
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
	if err := checkQuery(q, data.Dim()); err != nil {
		return nil, Stats{}, err
	}
	if err := core.CheckThreshold(eps); err != nil {
		return nil, Stats{}, err
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
	return matches, stats, nil // the loops emit in (seq, start, end) order already
}
