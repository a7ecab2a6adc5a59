package main

import (
	"fmt"
	"path/filepath"
	"text/tabwriter"

	"twsearch/internal/categorize"
	"twsearch/internal/core"
	"twsearch/internal/sequence"
)

// CategoryCounts is the paper's Table 1/2 sweep.
var CategoryCounts = []int{10, 20, 40, 80, 120, 160, 200, 250, 300}

// EpsThresholds is the paper's Table 3 sweep.
var EpsThresholds = []float64{5, 10, 20, 30, 40, 50}

// IndexSize describes one index's storage (Table 1's metric).
type IndexSize struct {
	// FileKB is this implementation's tree file size (labels stored as
	// references into the sequence store).
	FileKB int64
	// InlineKB is the size of the same tree in the paper's storage model —
	// labels copied into the records — derived from the file's own counters
	// (see indexSize). This is the column whose trend matches the paper's
	// Table 1.
	InlineKB int64
	Nodes    uint64
	Leaves   uint64
}

// indexSize reads ix's storage record. A fixed-width record (v1, what the
// harness builds) that carried its label would trade the 8-byte (sequence,
// start) reference for 4 bytes per label symbol, and a leaf would name its
// suffix's sequence in 4 bytes more, so the inline-label file is the
// measured file − 8·nodes + 4·label symbols + 4·leaves: within a page of the
// file the retired inline layout wrote (EXPERIMENTS.md, Table 1).
func indexSize(ix *core.Index) IndexSize {
	t := ix.Tree
	inline := t.SizeBytes() - 8*int64(t.NumNodes()) + 4*int64(t.TotalLabelSymbols()) + 4*int64(t.NumLeaves())
	return IndexSize{
		FileKB:   t.SizeBytes() / 1024,
		InlineKB: inline / 1024,
		Nodes:    t.NumNodes(),
		Leaves:   t.NumLeaves(),
	}
}

// measureSize builds one configuration and returns its size record.
func measureSize(cfg Config, data *sequence.Dataset, opts core.Options) (IndexSize, error) {
	ix, err := buildIndex(data, filepath.Join(cfg.Dir, "bench-size.twt"), opts)
	if err != nil {
		return IndexSize{}, err
	}
	size := indexSize(ix)
	return size, ix.RemoveFile()
}

// Table1Row is one line of Table 1.
type Table1Row struct {
	Categories int
	STcEL      IndexSize
	STcME      IndexSize
	SSTcEL     IndexSize
	SSTcME     IndexSize
}

// Table1Result bundles Table 1's output.
type Table1Result struct {
	ST         IndexSize // the exact tree, independent of category count
	DatabaseKB int64
	Rows       []Table1Row
}

// Table1 reproduces Table 1: index sizes of ST, ST_C (EL/ME) and SST_C
// (EL/ME) across category counts, on the stock workload.
func Table1(cfg Config) (Table1Result, error) {
	cfg = cfg.effective()
	data, _ := cfg.stockWorkload()
	var res Table1Result
	res.DatabaseKB = int64(data.TotalElements()) * 8 / 1024

	var err error
	res.ST, err = measureSize(cfg, data, core.Options{Kind: categorize.KindIdentity})
	if err != nil {
		return res, err
	}

	for _, cats := range CategoryCounts {
		row := Table1Row{Categories: cats}
		for _, cell := range []struct {
			kind   categorize.Kind
			sparse bool
			dst    *IndexSize
		}{
			{categorize.KindEqualLength, false, &row.STcEL},
			{categorize.KindMaxEntropy, false, &row.STcME},
			{categorize.KindEqualLength, true, &row.SSTcEL},
			{categorize.KindMaxEntropy, true, &row.SSTcME},
		} {
			*cell.dst, err = measureSize(cfg, data, core.Options{
				Kind: cell.kind, Categories: cats, Sparse: cell.sparse,
			})
			if err != nil {
				return res, err
			}
		}
		res.Rows = append(res.Rows, row)
	}

	w := tabwriter.NewWriter(cfg.Out, 2, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintf(cfg.Out, "Table 1: index sizes (KB, inline-label storage model — the paper's — derived from the file's counters; measured file KB in parens)\n")
	fmt.Fprintf(cfg.Out, "database: %d KB, ST: %d KB (%d)\n", res.DatabaseKB, res.ST.InlineKB, res.ST.FileKB)
	fmt.Fprintln(w, "#cats\tSTc-EL\tSTc-ME\tSSTc-EL\tSSTc-ME\t")
	for _, r := range res.Rows {
		fmt.Fprintf(w, "%d\t%d (%d)\t%d (%d)\t%d (%d)\t%d (%d)\t\n",
			r.Categories,
			r.STcEL.InlineKB, r.STcEL.FileKB,
			r.STcME.InlineKB, r.STcME.FileKB,
			r.SSTcEL.InlineKB, r.SSTcEL.FileKB,
			r.SSTcME.InlineKB, r.SSTcME.FileKB)
	}
	w.Flush()
	return res, nil
}

// Table2Row is one line of Table 2.
type Table2Row struct {
	Categories int
	STcEL      AlgoResult
	STcME      AlgoResult
	SSTcEL     AlgoResult
	SSTcME     AlgoResult
}

// Table2Result bundles Table 2's output.
type Table2Result struct {
	Eps  float64
	ST   AlgoResult // SimSearch-ST, independent of category count
	Rows []Table2Row
}

// Table2 reproduces Table 2: average query processing effort, in filter and
// post-processing cells, of the three SimSearch algorithms across category
// counts at the paper's average distance threshold of 30.
func Table2(cfg Config) (Table2Result, error) {
	cfg = cfg.effective()
	data, queries := cfg.stockWorkload()
	res := Table2Result{Eps: 30}

	st, err := buildIndex(data, filepath.Join(cfg.Dir, "bench-st2.twt"), core.Options{Kind: categorize.KindIdentity})
	if err != nil {
		return res, err
	}
	res.ST, err = runIndexQueries(st, queries, res.Eps)
	st.RemoveFile()
	if err != nil {
		return res, err
	}

	for _, cats := range CategoryCounts {
		row := Table2Row{Categories: cats}
		for _, cell := range []struct {
			kind   categorize.Kind
			sparse bool
			dst    *AlgoResult
		}{
			{categorize.KindEqualLength, false, &row.STcEL},
			{categorize.KindMaxEntropy, false, &row.STcME},
			{categorize.KindEqualLength, true, &row.SSTcEL},
			{categorize.KindMaxEntropy, true, &row.SSTcME},
		} {
			ix, err := buildIndex(data, filepath.Join(cfg.Dir, "bench-t2.twt"), core.Options{
				Kind: cell.kind, Categories: cats, Sparse: cell.sparse,
			})
			if err != nil {
				return res, err
			}
			*cell.dst, err = runIndexQueries(ix, queries, res.Eps)
			ix.RemoveFile()
			if err != nil {
				return res, err
			}
		}
		res.Rows = append(res.Rows, row)
	}

	w := tabwriter.NewWriter(cfg.Out, 2, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintf(cfg.Out, "Table 2: avg query processing (eps=%.0f); filter + post cells\n", res.Eps)
	fmt.Fprintf(cfg.Out, "SimSearch-ST: %s cells\n", fmtCells(res.ST))
	fmt.Fprintln(w, "#cats\tSTc-EL\tSTc-ME\tSSTc-EL\tSSTc-ME\t")
	for _, r := range res.Rows {
		fmt.Fprintf(w, "%d\t%s\t%s\t%s\t%s\t\n",
			r.Categories, fmtCells(r.STcEL), fmtCells(r.STcME), fmtCells(r.SSTcEL), fmtCells(r.SSTcME))
	}
	w.Flush()
	return res, nil
}

// fmtCells renders a result's filter + post-processing cells.
func fmtCells(a AlgoResult) string {
	return fmtCount(a.FilterCells) + "+" + fmtCount(a.PostCells)
}

// Table3Row is one line of Table 3.
type Table3Row struct {
	Eps      float64
	ScanFull AlgoResult // the paper's baseline: no early abandon, in closed form
	Scan     AlgoResult // modern baseline with Theorem-1 abandon
	SST10    AlgoResult
	SST20    AlgoResult
	SST80    AlgoResult
}

// Table3 reproduces Table 3: sequential scanning vs ME-based
// SimSearch-SST_C with 10, 20 and 80 categories, across eps 5..50.
func Table3(cfg Config) ([]Table3Row, error) {
	cfg = cfg.effective()
	data, queries := cfg.stockWorkload()

	var indexes []*core.Index
	for _, cats := range []int{10, 20, 80} {
		ix, err := buildIndex(data, filepath.Join(cfg.Dir, fmt.Sprintf("bench-t3-%d.twt", cats)), core.Options{
			Kind: categorize.KindMaxEntropy, Categories: cats, Sparse: true,
		})
		if err != nil {
			return nil, err
		}
		//lint:ignore deferinloop all three indexes are queried across every eps below, so they must live until the function returns; the loop is fixed at 3 iterations
		defer ix.RemoveFile()
		indexes = append(indexes, ix)
	}

	var rows []Table3Row
	for _, eps := range EpsThresholds {
		row := Table3Row{Eps: eps}
		var err error
		if row.Scan, row.ScanFull, err = runScanQueries(data, queries, eps); err != nil {
			return nil, err
		}
		for i, dst := range []*AlgoResult{&row.SST10, &row.SST20, &row.SST80} {
			if *dst, err = runIndexQueries(indexes[i], queries, eps); err != nil {
				return nil, err
			}
		}
		rows = append(rows, row)
	}

	w := tabwriter.NewWriter(cfg.Out, 2, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(cfg.Out, "Table 3: SeqScan vs SimSearch-SSTc(ME); filter + post cells (speedup in cells vs paper baseline)")
	fmt.Fprintln(w, "eps\tSeqScan(paper)\tSeqScan(+T1)\tSSTc(10)\tSSTc(20)\tSSTc(80)\tanswers/q\t")
	for _, r := range rows {
		su := func(a AlgoResult) string {
			return fmt.Sprintf("%s (%s)", fmtCount(a.Cells()), cellRatio(r.ScanFull, a))
		}
		fmt.Fprintf(w, "%.0f\t%s\t%s\t%s\t%s\t%s\t%s\t\n",
			r.Eps, fmtCount(r.ScanFull.Cells()), su(r.Scan), su(r.SST10), su(r.SST20), su(r.SST80),
			fmtCount(r.SST20.Answers))
	}
	w.Flush()
	return rows, nil
}

// cellRatio renders base's cells over a's, the speedup in the paper's cost
// unit.
func cellRatio(base, a AlgoResult) string {
	if a.Cells() <= 0 {
		return "-"
	}
	return fmt.Sprintf("%.1fx", base.Cells()/a.Cells())
}
