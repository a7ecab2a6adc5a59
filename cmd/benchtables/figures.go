package main

import (
	"fmt"
	"path/filepath"
	"text/tabwriter"

	"twsearch/internal/categorize"
	"twsearch/internal/core"
	"twsearch/internal/sequence"
	"twsearch/internal/workload"
)

// FigureRow is one point of Figure 4 or 5: baseline vs SimSearch-SST_C.
type FigureRow struct {
	// X is the swept parameter: average sequence length (Figure 4) or
	// number of sequences (Figure 5).
	X          int
	Categories int // chosen so the index stays smaller than the database
	IndexKB    int64
	Scan       AlgoResult
	ScanFull   AlgoResult // the paper's baseline, in closed form
	SST        AlgoResult
}

// Figure4Lengths is the paper's length sweep (200 sequences each).
var Figure4Lengths = []int{200, 400, 600, 800, 1000}

// Figure5Counts is the paper's sequence-count sweep (length 200 each).
var Figure5Counts = []int{1000, 2000, 4000, 6000, 8000, 10000}

// figureEps is the threshold used for the scalability study; the paper does
// not state one, so we keep the query mix moderately selective.
const figureEps = 10

// Figure4 reproduces Figure 4: query processing effort vs average sequence
// length on the artificial dataset (paper: 200 sequences, lengths 200 to
// 1000). Both curves should grow quadratically, SST_C below SeqScan.
func Figure4(cfg Config) ([]FigureRow, error) {
	cfg = cfg.effective()
	var rows []FigureRow
	for _, length := range Figure4Lengths {
		data := workload.Artificial(workload.ArtificialConfig{
			NumSequences: cfg.scaled(200),
			Len:          length,
			Seed:         cfg.Seed + int64(length),
		})
		row, err := figurePoint(cfg, data, length)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	printFigure(cfg, "Figure 4: query effort vs avg sequence length (artificial data); filter + post cells", "len", rows)
	return rows, nil
}

// Figure5 reproduces Figure 5: query processing effort vs number of
// sequences (paper: 1000 to 10000 sequences of length 200). Both curves
// should grow linearly, SST_C below SeqScan.
func Figure5(cfg Config) ([]FigureRow, error) {
	cfg = cfg.effective()
	var rows []FigureRow
	for _, count := range Figure5Counts {
		data := workload.Artificial(workload.ArtificialConfig{
			NumSequences: cfg.scaled(count),
			Len:          200,
			Seed:         cfg.Seed + int64(count),
		})
		row, err := figurePoint(cfg, data, count)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	printFigure(cfg, "Figure 5: query effort vs number of sequences (artificial data); filter + post cells", "#seqs", rows)
	return rows, nil
}

// figurePoint measures one sweep point. The category count is chosen, as in
// Section 7.3, to keep the index smaller than the database.
func figurePoint(cfg Config, data *sequence.Dataset, x int) (FigureRow, error) {
	queries := workload.Queries(data, workload.QueryConfig{Count: cfg.Queries, Seed: cfg.Seed + 7})
	row := FigureRow{X: x}
	dbBytes := int64(data.TotalElements()) * 8

	path := filepath.Join(cfg.Dir, "bench-fig.twt")
	var ix *core.Index
	for _, cats := range []int{40, 20, 10, 5, 2} {
		var err error
		ix, err = buildIndex(data, path, core.Options{
			Kind: categorize.KindMaxEntropy, Categories: cats, Sparse: true,
		})
		if err != nil {
			return row, err
		}
		if ix.SizeBytes() <= dbBytes || cats == 2 {
			row.Categories = cats
			break
		}
		ix.RemoveFile()
	}
	row.IndexKB = ix.SizeBytes() / 1024
	var err error
	if row.SST, err = runIndexQueries(ix, queries, figureEps); err != nil {
		ix.RemoveFile()
		return row, err
	}
	ix.RemoveFile()
	row.Scan, row.ScanFull, err = runScanQueries(data, queries, figureEps)
	return row, err
}

func printFigure(cfg Config, title, xName string, rows []FigureRow) {
	fmt.Fprintln(cfg.Out, title)
	w := tabwriter.NewWriter(cfg.Out, 2, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(w, xName+"\t#cats\tidxKB\tSeqScan(paper)\tSeqScan(+T1)\tSSTc\tspeedup\tanswers/q\t")
	for _, r := range rows {
		fmt.Fprintf(w, "%d\t%d\t%d\t%s\t%s\t%s\t%s\t%s\t\n",
			r.X, r.Categories, r.IndexKB,
			fmtCount(r.ScanFull.Cells()), fmtCount(r.Scan.Cells()), fmtCount(r.SST.Cells()),
			cellRatio(r.ScanFull, r.SST), fmtCount(r.SST.Answers))
	}
	w.Flush()
}
