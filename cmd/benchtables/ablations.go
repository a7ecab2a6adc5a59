package main

import (
	"fmt"
	"path/filepath"
	"text/tabwriter"

	"twsearch/internal/categorize"
	"twsearch/internal/core"
	"twsearch/internal/workload"
)

// AblationSparseRow compares dense ST_C against sparse SST_C at equal
// category counts (the Section 6 design choice).
type AblationSparseRow struct {
	Categories  int
	DenseSize   IndexSize
	SparseSize  IndexSize
	Dense       AlgoResult
	Sparse      AlgoResult
	SparseRatio float64 // compaction ratio r: non-stored / all suffixes
}

// AblationSparse measures what storing only run-head suffixes buys.
func AblationSparse(cfg Config) ([]AblationSparseRow, error) {
	cfg = cfg.effective()
	data, queries := cfg.stockWorkload()
	total := float64(data.TotalElements())
	var rows []AblationSparseRow
	for _, cats := range []int{10, 20, 80} {
		row := AblationSparseRow{Categories: cats}
		for _, sparse := range []bool{false, true} {
			ix, err := core.Build(data, filepath.Join(cfg.Dir, "bench-abl.twt"), core.Options{
				Kind: categorize.KindMaxEntropy, Categories: cats, Sparse: sparse,
			})
			if err != nil {
				return nil, err
			}
			res, err := runIndexQueries(ix, queries, 30)
			if err != nil {
				ix.RemoveFile()
				return nil, err
			}
			if sparse {
				row.SparseSize = indexSize(ix)
				row.Sparse = res
				row.SparseRatio = 1 - float64(ix.Tree.NumLeaves())/total
			} else {
				row.DenseSize = indexSize(ix)
				row.Dense = res
			}
			ix.RemoveFile()
		}
		rows = append(rows, row)
	}

	fmt.Fprintln(cfg.Out, "Ablation: sparse (SSTc) vs dense (STc) suffix tree, ME, eps=30")
	w := tabwriter.NewWriter(cfg.Out, 2, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(w, "#cats\tdenseKB\tsparseKB\tr\tdense cells\tsparse cells\t")
	for _, r := range rows {
		fmt.Fprintf(w, "%d\t%d\t%d\t%.2f\t%s\t%s\t\n",
			r.Categories, r.DenseSize.FileKB, r.SparseSize.FileKB, r.SparseRatio,
			fmtCount(r.Dense.Cells()), fmtCount(r.Sparse.Cells()))
	}
	w.Flush()
	return rows, nil
}

// AblationPruningRow compares Theorem-1 branch pruning on vs off.
type AblationPruningRow struct {
	Eps      float64
	Pruned   AlgoResult
	Unpruned AlgoResult
}

// AblationPruning measures the paper's R_p reduction factor: identical
// answers with and without Theorem-1 pruning, different work.
func AblationPruning(cfg Config) ([]AblationPruningRow, error) {
	cfg = cfg.effective()
	data, queries := cfg.stockWorkload()
	ix, err := core.Build(data, filepath.Join(cfg.Dir, "bench-prune.twt"), core.Options{
		Kind: categorize.KindMaxEntropy, Categories: 40, Sparse: true,
	})
	if err != nil {
		return nil, err
	}
	defer ix.RemoveFile()

	var rows []AblationPruningRow
	for _, eps := range []float64{5, 30} {
		row := AblationPruningRow{Eps: eps}
		ix.DisablePruning = false
		if row.Pruned, err = runIndexQueries(ix, queries, eps); err != nil {
			return nil, err
		}
		ix.DisablePruning = true
		if row.Unpruned, err = runIndexQueries(ix, queries, eps); err != nil {
			return nil, err
		}
		ix.DisablePruning = false
		rows = append(rows, row)
	}

	fmt.Fprintln(cfg.Out, "Ablation: Theorem-1 branch pruning (SSTc ME-40)")
	w := tabwriter.NewWriter(cfg.Out, 2, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(w, "eps\tpruned nodes\tunpruned nodes\tRp(nodes)\t")
	for _, r := range rows {
		rp := r.Unpruned.NodesViews / r.Pruned.NodesViews
		fmt.Fprintf(w, "%.0f\t%s\t%s\t%.1fx\t\n",
			r.Eps, fmtCount(r.Pruned.NodesViews), fmtCount(r.Unpruned.NodesViews), rp)
	}
	w.Flush()
	return rows, nil
}

// AblationWindowRow compares warping-window constraints (the conclusion
// extension), each measured with the envelope row gate on (Result) and off
// (NoEnvelope) so band wins and gate wins stay separable in the report.
type AblationWindowRow struct {
	Window     int // -1 = unconstrained
	Result     AlgoResult
	NoEnvelope AlgoResult
}

// AblationWindow measures how a Sakoe–Chiba band changes work and answers,
// and what the envelope row gate saves on top at each band width.
func AblationWindow(cfg Config) ([]AblationWindowRow, error) {
	cfg = cfg.effective()
	data, queries := cfg.stockWorkload()
	var rows []AblationWindowRow
	for _, window := range []int{-1, 20, 10, 5} {
		ix, err := core.Build(data, filepath.Join(cfg.Dir, "bench-win.twt"), core.Options{
			Kind: categorize.KindMaxEntropy, Categories: 40, Window: window,
		})
		if err != nil {
			return nil, err
		}
		row := AblationWindowRow{Window: window}
		if row.Result, err = runIndexQueries(ix, queries, 30); err != nil {
			ix.RemoveFile()
			return nil, err
		}
		ix.DisableEnvelopes = true
		row.NoEnvelope, err = runIndexQueries(ix, queries, 30)
		ix.RemoveFile()
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}

	fmt.Fprintln(cfg.Out, "Ablation: warping-window constraint × envelope row gate (STc ME-40, eps=30)")
	w := tabwriter.NewWriter(cfg.Out, 2, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(w, "window\tenv cells\tno-env cells\tpruned/q\tanswers/q\t")
	for _, r := range rows {
		win := "none"
		if r.Window >= 0 {
			win = fmt.Sprintf("%d", r.Window)
		}
		fmt.Fprintf(w, "%s\t%s\t%s\t%s\t%s\t\n",
			win, fmtCount(r.Result.FilterCells), fmtCount(r.NoEnvelope.FilterCells),
			fmtCount(r.Result.EnvelopePruned), fmtCount(r.Result.Answers))
	}
	w.Flush()
	return rows, nil
}

// AblationPoolRow measures buffer pool size vs physical reads.
type AblationPoolRow struct {
	PoolPages int
	Result    AlgoResult
}

// AblationBufferPool reopens one index through pools of different sizes —
// the disk-residency story of Section 4.1.
func AblationBufferPool(cfg Config) ([]AblationPoolRow, error) {
	cfg = cfg.effective()
	data, queries := cfg.stockWorkload()
	path := filepath.Join(cfg.Dir, "bench-pool.twt")
	built, err := core.Build(data, path, core.Options{
		Kind: categorize.KindMaxEntropy, Categories: 40, Sparse: true,
	})
	if err != nil {
		return nil, err
	}
	scheme := built.Scheme
	built.Close()
	defer func() {
		if f, err := core.Open(data, scheme, path, 8, -1); err == nil {
			f.RemoveFile()
		}
	}()

	var rows []AblationPoolRow
	for _, pages := range []int{4, 16, 64, 256, 1024} {
		ix, err := core.Open(data, scheme, path, pages, -1)
		if err != nil {
			return nil, err
		}
		res, err := runIndexQueries(ix, queries, 30)
		ix.Close()
		if err != nil {
			return nil, err
		}
		rows = append(rows, AblationPoolRow{PoolPages: pages, Result: res})
	}

	fmt.Fprintln(cfg.Out, "Ablation: buffer pool size (SSTc ME-40, eps=30)")
	w := tabwriter.NewWriter(cfg.Out, 2, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(w, "pages\tpages read/q\t")
	for _, r := range rows {
		fmt.Fprintf(w, "%d\t%s\t\n", r.PoolPages, fmtCount(r.Result.PagesRead))
	}
	w.Flush()
	return rows, nil
}

// AblationQueryLenRow measures one query length.
type AblationQueryLenRow struct {
	QueryLen int
	Eps      float64
	Scan     AlgoResult
	SST      AlgoResult
}

// AblationQueryLength sweeps the query length — the |Q| factor of the
// paper's complexity formulas (every table row costs |Q| cells). The
// threshold scales with the length so selectivity stays comparable.
func AblationQueryLength(cfg Config) ([]AblationQueryLenRow, error) {
	cfg = cfg.effective()
	data, _ := cfg.stockWorkload()
	ix, err := core.Build(data, filepath.Join(cfg.Dir, "bench-qlen.twt"), core.Options{
		Kind: categorize.KindMaxEntropy, Categories: 40, Sparse: true,
	})
	if err != nil {
		return nil, err
	}
	defer ix.RemoveFile()

	var rows []AblationQueryLenRow
	for _, qlen := range []int{5, 10, 20, 40, 80} {
		queries := workload.Queries(data, workload.QueryConfig{
			Count: cfg.Queries, AvgLen: qlen, Seed: cfg.Seed + int64(qlen),
		})
		eps := 0.75 * float64(qlen)
		row := AblationQueryLenRow{QueryLen: qlen, Eps: eps}
		if row.SST, err = runIndexQueries(ix, queries, eps); err != nil {
			return nil, err
		}
		if row.Scan, _, err = runScanQueries(data, queries, eps); err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}

	fmt.Fprintln(cfg.Out, "Ablation: query length (SSTc ME-40, eps = 0.75*|Q|)")
	w := tabwriter.NewWriter(cfg.Out, 2, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(w, "|Q|\teps\tscan cells\tsst cells\tanswers/q\t")
	for _, r := range rows {
		fmt.Fprintf(w, "%d\t%.1f\t%s\t%s\t%s\t\n",
			r.QueryLen, r.Eps, fmtCount(r.Scan.Cells()), fmtCount(r.SST.Cells()), fmtCount(r.SST.Answers))
	}
	w.Flush()
	return rows, nil
}
