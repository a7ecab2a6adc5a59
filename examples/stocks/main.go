// Stocks: the paper's motivating scenario — find stocks whose price
// movements are similar to a target pattern, even when sampled at different
// rates or stretched over different spans.
//
// The example generates a synthetic S&P-500-like database (the paper's
// workload), plants a half-rate resampled copy of one stock's pattern in
// another stock, and shows that (a) time warping finds it while a
// same-length comparison cannot, and (b) the sparse categorized index
// returns it orders of magnitude cheaper than scanning.
//
//	go run ./examples/stocks
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"twsearch/internal/workload"
	"twsearch/seqdb"
)

func main() {
	dir, err := os.MkdirTemp("", "twsearch-stocks-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	db, err := seqdb.Create(dir)
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	// A 150-stock database with the paper's price-band mix.
	data := workload.Stocks(workload.StockConfig{NumSequences: 150, Seed: 11})
	for i := 0; i < data.Len(); i++ {
		must(db.Add(data.Seq(i).ID, data.Values(i)))
	}

	// Take a 30-day pattern from stock-0007 ...
	src := db.Values("stock-0007")
	pattern := src[100:130]

	// ... and plant a HALF-RATE copy (every other day, 15 samples) inside a
	// new sequence. Same shape, different length: Euclidean same-length
	// matching can never align these; time warping can.
	halfRate := make([]float64, 0, len(pattern)/2)
	for i := 0; i < len(pattern); i += 2 {
		halfRate = append(halfRate, pattern[i])
	}
	planted := append(append(append([]float64{}, src[:40]...), halfRate...), src[40:80]...)
	must(db.Add("planted-half-rate", planted))
	must(db.Save())

	must(db.BuildIndex("sst", seqdb.IndexSpec{
		Method:     seqdb.MethodMaxEntropy,
		Categories: 40,
		Sparse:     true,
	}))

	// Search with the 30-day pattern. The planted 15-day copy differs from
	// the pattern only by sampling rate. Warping maps each dropped sample
	// onto a kept neighbor, so the distance is at most the sum of each odd
	// sample's gap to its nearer even neighbor — use that as the threshold.
	eps := 1.0
	for i := 1; i < len(pattern); i += 2 {
		gap := abs(pattern[i] - pattern[i-1])
		if i+1 < len(pattern) {
			if g2 := abs(pattern[i] - pattern[i+1]); g2 < gap {
				gap = g2
			}
		}
		eps += gap
	}
	matches, stats, err := db.SearchWith(context.Background(), "sst", pattern, eps, seqdb.SearchOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("pattern of %d days, eps=%.1f: %d similar subsequences in %v\n",
		len(pattern), eps, len(matches), stats.Elapsed)

	// The copy sits at [40, 55) in the planted sequence; accept any match
	// substantially overlapping it.
	found := false
	for _, m := range matches {
		if m.SeqID == "planted-half-rate" && m.Start <= 44 && m.End >= 51 {
			fmt.Printf("  -> found the half-rate copy: %s[%d:%d] at distance %.2f (length %d vs query %d)\n",
				m.SeqID, m.Start, m.End, m.Distance, m.End-m.Start, len(pattern))
			found = true
			break
		}
	}
	if !found {
		log.Fatal("planted half-rate copy not found — this should be impossible")
	}

	// Work comparison against both baselines.
	_, scanStats, err := db.SeqScanCtx(context.Background(), pattern, eps)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("index work:  %8d table cells, %d tree nodes, %v\n",
		stats.Cells(), stats.NodesVisited, stats.Elapsed)
	fmt.Printf("scan work:   %8d table cells, %v (Theorem-1 abandoning scan)\n",
		scanStats.Cells(), scanStats.Elapsed)
	fmt.Printf("speedup: %.1fx fewer cells\n",
		float64(scanStats.Cells())/float64(stats.Cells()))
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
