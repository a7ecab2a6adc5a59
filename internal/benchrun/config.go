// Package benchrun regenerates every table and figure of the paper's
// evaluation (Section 7): Table 1 (index sizes vs number of categories),
// Table 2 (query times vs number of categories), Table 3 (SeqScan vs
// SimSearch-SST_C across distance thresholds), Figure 4 (scalability in
// sequence length), and Figure 5 (scalability in sequence count) — plus the
// ablations DESIGN.md calls out. It is shared by the root bench_test.go
// (go test -bench) and cmd/benchtables (full paper-scale runs).
package benchrun

import (
	"context"
	"fmt"
	"io"
	"os"
	"time"

	"twsearch/internal/core"
	"twsearch/internal/sequence"
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
	// (545 stock sequences, average length 232). Benchmarks use a smaller
	// scale to keep -bench runs quick.
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

// AlgoResult is one algorithm's averaged measurement over the query set.
type AlgoResult struct {
	AvgTime        time.Duration
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
		AvgTime:        total.Elapsed / time.Duration(n),
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
//
//twlint:ctx-root offline measurement loop: the tables average whole searches, so every query runs to completion
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

// runScanQueries averages sequential scans; full selects the paper's
// no-abandon baseline.
func runScanQueries(data *sequence.Dataset, queries [][]float64, eps float64, full bool) (AlgoResult, error) {
	var total core.SearchStats
	for _, q := range queries {
		var stats core.SearchStats
		var err error
		if full {
			_, stats, err = core.SeqScanFull(data, q, eps, -1)
		} else {
			_, stats, err = core.SeqScan(data, q, eps, -1)
		}
		if err != nil {
			return AlgoResult{}, err
		}
		total.Add(stats)
	}
	return average(total, len(queries)), nil
}

// fmtDur renders a duration compactly for table cells.
func fmtDur(d time.Duration) string {
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.2fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.1fms", float64(d.Microseconds())/1000)
	default:
		return fmt.Sprintf("%dµs", d.Microseconds())
	}
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
