// Package core implements the paper's contribution: similarity search for
// subsequences under the time warping distance, with no false dismissals,
// over a disk-based suffix tree.
//
// The three index/search variants of the paper are all driven by one engine:
//
//   - SimSearch-ST (Section 4): the identity categorization gives every
//     distinct value a point category, so the lower-bound base distance
//     degenerates to the exact city-block distance and filtering distances
//     are exact — no post-processing is needed.
//   - SimSearch-ST_C (Section 5): a lossy categorization (EL/ME/k-means)
//     makes the tree compact; traversal computes D_tw-lb (Definition 3) and
//     candidates are verified against the raw values (PostProcess).
//   - SimSearch-SST_C (Section 6): the sparse tree stores only run-head
//     suffixes; subsequences starting inside a run are recovered through
//     D_tw-lb2 (Definition 4) and verified in the same post-processing step.
//
// The sequential-scanning baseline of Section 7 lives in seqscan.go.
package core

import (
	"cmp"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"

	"twsearch/internal/categorize"
	"twsearch/internal/disktree"
	"twsearch/internal/sequence"
	"twsearch/internal/storage"
	"twsearch/internal/suffixtree"
)

// Options configures an index build.
type Options struct {
	// Kind selects the categorization method. categorize.KindIdentity
	// yields the exact suffix tree ST of Section 4.
	Kind categorize.Kind
	// Categories is the number of categories c (ignored by identity).
	Categories int
	// Sparse selects the sparse suffix tree SST_C of Section 6.
	Sparse bool
	// Window is the optional Sakoe–Chiba warping-window half-width from the
	// paper's conclusion; < 0 disables the constraint.
	Window int
	// MinAnswerLen, when > 1, applies the conclusion's other space
	// optimization: suffixes shorter than this are not indexed, and Search
	// returns only answers of at least this length. With a window w and
	// minimum query length qmin, dtw.MinMaxAnswerLength gives the right
	// value (qmin - w).
	MinAnswerLen int
	// KMeansIters bounds k-means refinement (k-means only). Defaults to 20.
	KMeansIters int
	// Build tunes the disk construction (pool size, record encoding — v1
	// when none is named); its Sparse and MinSuffixLen are set from the
	// fields above.
	Build disktree.BuildOptions
}

func (o Options) withDefaults() Options {
	if o.Kind == "" {
		o.Kind = categorize.KindMaxEntropy
	}
	if o.Categories == 0 {
		o.Categories = 20
	}
	if o.KMeansIters == 0 {
		o.KMeansIters = 20
	}
	if o.Window == 0 {
		o.Window = -1
	}
	o.Build.Sparse = o.Sparse
	o.Build.MinSuffixLen = o.MinAnswerLen
	// Scalar trees are v1 unless v2 is asked for, for one reason: bench's
	// TestSmoke needs storage.view_miss_ns, which its probe emits only for a
	// lowmem smoke file larger than v2 writes it (HACKING.md "Why v1 is
	// still here"). Deleting this line is the scalar flip to v2.
	o.Build.Encoding = cmp.Or(o.Build.Encoding, disktree.EncodingV1)
	return o
}

// Index bundles everything a search needs: the raw data (for
// post-processing), the categorization scheme (for symbol intervals), and —
// in the embedded Engine — the categorized texts and the disk-resident
// tree. All of it is immutable at query time, and the per-query mutable
// state lives in pooled query contexts, so one Index serves any number of
// concurrent searches.
type Index struct {
	Engine
	Data   *sequence.Dataset
	Scheme *categorize.Scheme
	// Exact records that filtering distances are exact (identity scheme):
	// stored-suffix candidates skip post-processing.
	Exact bool
	// BuildStats records how the disk tree was constructed (zero for
	// indexes attached with Open).
	BuildStats disktree.BuildStats
}

// newIndex wraps an opened tree and its texts into a searchable index.
func newIndex(data *sequence.Dataset, scheme *categorize.Scheme, store *suffixtree.TextStore, tree *disktree.File, window int) *Index {
	return &Index{
		Engine: NewEngine(tree, store, window, func() Kernel { return newScalarKernel(data, scheme) }),
		Data:   data,
		Scheme: scheme,
		Exact:  scheme.Kind() == categorize.KindIdentity,
	}
}

// Build fits the categorizer on the dataset, encodes every sequence, and
// constructs the disk-based suffix tree at path.
func Build(data *sequence.Dataset, path string, opts Options) (*Index, error) {
	opts = opts.withDefaults()
	if data.Len() == 0 {
		return nil, fmt.Errorf("core: empty dataset")
	}
	scheme, err := categorize.Fit(opts.Kind, data.AllValues(), opts.Categories, opts.KMeansIters)
	if err != nil {
		return nil, fmt.Errorf("core: fitting categorizer: %w", err)
	}
	return BuildWithScheme(data, scheme, path, opts)
}

// BuildWithScheme is Build with a pre-fitted categorization scheme (used
// when several indexes must share one scheme, or when reopening).
func BuildWithScheme(data *sequence.Dataset, scheme *categorize.Scheme, path string, opts Options) (*Index, error) {
	opts = opts.withDefaults()
	store := encodeAll(data, scheme)
	seqs := make([]int, data.Len())
	for i := range seqs {
		seqs[i] = i
	}
	var buildStats disktree.BuildStats
	opts.Build.Stats = &buildStats
	tree, err := disktree.Build(store, seqs, path, opts.Build)
	if err != nil {
		return nil, fmt.Errorf("core: building tree: %w", err)
	}
	ix := newIndex(data, scheme, store, tree, opts.Window)
	ix.BuildStats = buildStats
	return ix, nil
}

// Open attaches an existing tree file to its dataset and scheme. window < 0
// disables the warping-window constraint.
func Open(data *sequence.Dataset, scheme *categorize.Scheme, treePath string, poolPages, window int) (*Index, error) {
	return OpenWith(data, scheme, treePath, poolPages, window, storage.BackendPool)
}

// OpenWith is Open with an explicit page-source backend for the tree file.
func OpenWith(data *sequence.Dataset, scheme *categorize.Scheme, treePath string, poolPages, window int, backend storage.Backend) (*Index, error) {
	if poolPages <= 0 {
		poolPages = 256
	}
	tree, err := disktree.OpenBackend(treePath, poolPages, true, backend)
	if err != nil {
		return nil, err
	}
	return newIndex(data, scheme, encodeAll(data, scheme), tree, window), nil
}

// SizeBytes returns the on-disk index size (Table 1's metric).
func (ix *Index) SizeBytes() int64 { return ix.Tree.SizeBytes() }

// RemoveFile closes the index and deletes its tree file; benchmarks use it
// to clean up throwaway indexes.
func (ix *Index) RemoveFile() error {
	path := ix.Tree.Path()
	if err := ix.Tree.Close(); err != nil {
		return err
	}
	return os.Remove(filepath.Clean(path))
}

// encodeAll categorizes every sequence into a text store, the sequences
// shared out among up to GOMAXPROCS goroutines.
func encodeAll(data *sequence.Dataset, scheme *categorize.Scheme) *suffixtree.TextStore {
	texts := make([][]suffixtree.Symbol, data.Len())
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := min(runtime.GOMAXPROCS(0), len(texts)); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < len(texts); i = int(next.Add(1)) - 1 {
				texts[i] = scheme.Encode(data.Values(i))
			}
		}()
	}
	wg.Wait()
	store := suffixtree.NewTextStore()
	for _, text := range texts {
		store.Add(text)
	}
	return store
}
