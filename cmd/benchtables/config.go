package main

import (
	"context"
	"fmt"
	"io"
	"os"

	"twsearch/internal/core"
	"twsearch/internal/sequence"
	"twsearch/internal/storage"
	"twsearch/internal/workload"
)

// Workload selects the dataset family for the Table 1–3 experiments.
type Workload string

// The two Section 7 dataset families. The paper runs Tables 1–2 on both
// and reports "similar conclusions"; Figures 4–5 are artificial-only by
// construction.
const (
	WorkloadStocks     Workload = "stocks"
	WorkloadArtificial Workload = "artificial"
)

// Config scales and directs one harness run.
type Config struct {
	// Scale multiplies dataset sizes; 1.0 is the paper's scale
	// (545 stock sequences, average length 232). Tests use a smaller
	// scale to stay quick.
	Scale float64
	// Queries is how many queries each measurement averages over.
	Queries int
	// Workload picks the dataset family for the tables (default stocks).
	Workload Workload
	// Dir is the working directory for index files; it must exist.
	Dir string
	// Seed drives every generator.
	Seed int64
	// Out receives the formatted tables; nil discards them.
	Out io.Writer
}

func (c Config) effective() Config {
	if c.Scale == 0 {
		c.Scale = 1
	}
	if c.Queries == 0 {
		c.Queries = 10
	}
	if c.Dir == "" {
		c.Dir = os.TempDir()
	}
	if c.Workload == "" {
		c.Workload = WorkloadStocks
	}
	if c.Out == nil {
		c.Out = io.Discard
	}
	return c
}

func (c Config) scaled(n int) int {
	v := int(float64(n)*c.Scale + 0.5)
	if v < 2 {
		v = 2
	}
	return v
}

// stockWorkload generates the configured Section 7 dataset (stock stand-in
// by default, the paper's artificial random walks otherwise) and its query
// mix.
func (c Config) stockWorkload() (*sequence.Dataset, [][]float64) {
	var data *sequence.Dataset
	if c.Workload == WorkloadArtificial {
		data = workload.Artificial(workload.ArtificialConfig{
			NumSequences: c.scaled(545),
			Len:          232,
			LenJitter:    58,
			Seed:         c.Seed,
		})
	} else {
		data = workload.Stocks(workload.StockConfig{
			NumSequences: c.scaled(545),
			AvgLen:       232,
			Seed:         c.Seed,
		})
	}
	queries := workload.Queries(data, workload.QueryConfig{Count: c.Queries, Seed: c.Seed + 1})
	return data, queries
}

// AlgoResult is one algorithm's averaged work over the query set, in the
// paper's cost units.
type AlgoResult struct {
	FilterCells    float64
	PostCells      float64
	Candidates     float64
	Answers        float64
	NodesViews     float64
	PagesRead      float64
	EnvelopePruned float64
	LBCells        float64
}

// Cells returns average total table cells.
func (r AlgoResult) Cells() float64 { return r.FilterCells + r.PostCells }

func average(total core.SearchStats, n int) AlgoResult {
	f := float64(n)
	return AlgoResult{
		FilterCells:    float64(total.FilterCells) / f,
		PostCells:      float64(total.PostCells) / f,
		Candidates:     float64(total.Candidates) / f,
		Answers:        float64(total.Answers) / f,
		NodesViews:     float64(total.NodesVisited) / f,
		PagesRead:      float64(total.PagesRead) / f,
		EnvelopePruned: float64(total.EnvelopePruned) / f,
		LBCells:        float64(total.LBCells) / f,
	}
}

// runIndexQueries averages index searches over the query set.
func runIndexQueries(ix *core.Index, queries [][]float64, eps float64) (AlgoResult, error) {
	var total core.SearchStats
	for _, q := range queries {
		_, stats, err := ix.Search(context.Background(), q, eps)
		if err != nil {
			return AlgoResult{}, err
		}
		total.Add(stats)
	}
	return average(total, len(queries)), nil
}

// runScanQueries averages the Theorem-1 abandoning scan over the query set,
// and returns beside it the paper's no-abandon baseline (Section 4.3), which
// is not run: it computes one full cumulative table per suffix, so its
// answers are the abandoning scan's and its cells are fullScanCells.
func runScanQueries(data *sequence.Dataset, queries [][]float64, eps float64) (AlgoResult, AlgoResult, error) {
	var total, full core.SearchStats
	for _, q := range queries {
		_, stats, err := core.SeqScan(data, q, eps, -1)
		if err != nil {
			return AlgoResult{}, AlgoResult{}, err
		}
		total.Add(stats)
		cells, err := fullScanCells(data, q, -1)
		if err != nil {
			return AlgoResult{}, AlgoResult{}, err
		}
		full.FilterCells += cells
		full.Answers += stats.Answers
	}
	return average(total, len(queries)), average(full, len(queries)), nil
}

// fullScanCells is the DP cells of the paper's baseline for query q: the
// table of a suffix of length m has m rows of |Q| cells, so a sequence of
// length L costs |Q|·L(L+1)/2. Under a warping window a row costs its band
// instead, which this does not model, so a window >= 0 is refused.
func fullScanCells(data *sequence.Dataset, q []float64, window int) (uint64, error) {
	if window >= 0 {
		return 0, fmt.Errorf("no closed form for the full scan under window %d", window)
	}
	var rows uint64
	for seq := 0; seq < data.Len(); seq++ {
		l := uint64(len(data.Values(seq)))
		rows += l * (l + 1) / 2
	}
	return uint64(len(q)) * rows, nil
}

// fmtCount renders large averages compactly.
func fmtCount(v float64) string {
	switch {
	case v >= 1e9:
		return fmt.Sprintf("%.1fG", v/1e9)
	case v >= 1e6:
		return fmt.Sprintf("%.1fM", v/1e6)
	case v >= 1e3:
		return fmt.Sprintf("%.1fk", v/1e3)
	default:
		return fmt.Sprintf("%.0f", v)
	}
}

// buildIndex builds an index read through the buffer pool, named: the
// tables count the pages a search reads from its tree file, the paper's
// disk accesses, and only the pool reads a page at a time (the default
// mapping reads none the process can count).
func buildIndex(data *sequence.Dataset, path string, opts core.Options) (*core.Index, error) {
	opts.Backend = storage.BackendPool
	return core.Build(data, path, opts)
}
