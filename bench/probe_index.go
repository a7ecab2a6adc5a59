package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"twsearch/internal/categorize"
	"twsearch/internal/disktree"
	"twsearch/internal/storage"
	"twsearch/internal/suffixtree"
)

// buildBatch is how many sequences the build probes use: the library's
// default BuildOptions.BatchSize, one in-memory tree of the build pipeline.
const buildBatch = 64

// pageSize is the tree file's page size, for reporting sizes in pages.
const pageSize = storage.PageSize

// probeBuild times the three steps of the write path on one batch of the
// workload's data, by direct calls: fitting the categorizer, building the
// in-memory suffix tree, and serializing it to a tree file.
func probeBuild(seqs [][]float64, method string, categories int, sparse bool, encoding, dir string) (map[string]Metric, error) {
	seqs = seqs[:min(buildBatch, len(seqs))]
	var all []float64
	for _, s := range seqs {
		all = append(all, s...)
	}
	out := map[string]Metric{}

	t0 := time.Now()
	scheme, err := categorize.Fit(categorize.Kind(method), all, categories, 20)
	if err != nil {
		return nil, err
	}
	out["categorize.fit_s"] = Metric{Value: time.Since(t0).Seconds(), Unit: "s", N: len(all)}

	store := suffixtree.NewTextStore()
	ids := make([]int, len(seqs))
	for i, s := range seqs {
		ids[i] = store.Add(scheme.Encode(s))
	}
	t0 = time.Now()
	tree := suffixtree.BuildMergedFiltered(store, ids, sparse, 0)
	out["suffixtree.build_ns_per_symbol"] = Metric{Value: float64(time.Since(t0)) / float64(len(all)), Unit: "ns", N: len(all)}

	enc, err := disktree.ParseEncoding(encoding)
	if err != nil {
		return nil, err
	}
	path := filepath.Join(dir, "probe-write.twt")
	t0 = time.Now()
	f, err := disktree.CreateEncoded(path, tree, 256, disktree.LayoutReference, enc)
	if err != nil {
		return nil, err
	}
	d := time.Since(t0)
	nodes := f.NumNodes()
	if err := f.Close(); err != nil {
		return nil, err
	}
	if err := os.Remove(path); err != nil {
		return nil, err
	}
	out["disktree.write_ns_per_node"] = Metric{Value: float64(d) / float64(nodes), Unit: "ns", N: int(nodes)}
	return out, nil
}

// probeDecode walks the workload's own tree file depth-first through the
// given backend, decoding up to maxNodes nodes with one reused scratch node
// per level, and reports the mean time per node. It also returns the file's
// node count.
func probeDecode(path, backend string, poolPages, maxNodes int) (m Metric, nodes uint64, err error) {
	b, err := storage.ParseBackend(backend)
	if err != nil {
		return m, 0, err
	}
	f, err := disktree.OpenBackend(path, poolPages, true, b)
	if err != nil {
		return m, 0, err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()

	var scratch []*disktree.Node
	visited := 0
	var walk func(p disktree.Ptr, level int) error
	walk = func(p disktree.Ptr, level int) error {
		if visited >= maxNodes {
			return nil
		}
		if level == len(scratch) {
			scratch = append(scratch, &disktree.Node{})
		}
		n := scratch[level]
		if err := f.ReadNodeInto(p, n); err != nil {
			return err
		}
		visited++
		for i := range n.Children {
			// n is reused only below this level, so Children stays valid.
			if err := walk(n.Children[i].Ptr, level+1); err != nil {
				return err
			}
		}
		return nil
	}
	t0 := time.Now()
	if err := walk(f.Root(), 0); err != nil {
		return m, 0, fmt.Errorf("decoding %s: %w", path, err)
	}
	d := time.Since(t0)
	m = Metric{Value: float64(d) / float64(visited), Unit: "ns", N: visited}
	return m, f.NumNodes(), nil
}

// viewCycle borrows and releases views pages 1..span cyclically, views times.
func viewCycle(src storage.PageSource, views, span int) (byte, error) {
	var sum byte
	for i := 0; i < views; i++ {
		page, release, err := src.View(storage.PageID(1 + i%span))
		if err != nil {
			return 0, err
		}
		sum += page[0]
		release()
	}
	return sum, nil
}

// probeViews times PageSource.View on the workload's tree file: the same
// page again and again (always cached), and a cyclic scan over more pages
// than the pool holds (never cached by an LRU pool). A file too small to
// outrun the pool reports no miss time.
func probeViews(path, backend string, poolPages, views int) (map[string]Metric, error) {
	b, err := storage.ParseBackend(backend)
	if err != nil {
		return nil, err
	}
	pf, err := storage.OpenFile(path, true)
	if err != nil {
		return nil, err
	}
	src, err := storage.NewSource(pf, b, poolPages)
	if err != nil {
		pf.Close()
		return nil, err
	}
	defer src.Close()

	out := map[string]Metric{}
	var sum byte
	scan := func(span int) (time.Duration, error) {
		var verr error
		d := medianBatch(func() {
			var s byte
			if s, verr = viewCycle(src, views, span); verr == nil {
				sum += s
			}
		})
		return d, verr
	}
	d, err := scan(1)
	if err != nil {
		return nil, err
	}
	out["storage.view_hit_ns"] = Metric{Value: float64(d) / float64(views), Unit: "ns", N: views}
	if span := 2 * poolPages; int(pf.NumPages()) > span+1 {
		if d, err = scan(span); err != nil {
			return nil, err
		}
		out["storage.view_miss_ns"] = Metric{Value: float64(d) / float64(views), Unit: "ns", N: views}
	}
	probeSink += float64(sum)
	return out, nil
}
