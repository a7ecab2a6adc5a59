// Tuning: the paper's Section 5.1 category-count selection. "Too many
// categories do not help much to increase the number of common
// subsequences, but likewise, too few categories do not help much to reduce
// the query processing time" — so the paper proposes picking the count that
// minimizes the weighted cost W_t·C_t + W_s·C_s.
//
// This example runs that procedure on a synthetic stock database for two
// different weightings (speed-hungry and space-hungry) and prints the whole
// trade-off curve.
//
//	go run ./examples/tuning
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
	dir, err := os.MkdirTemp("", "twsearch-tuning-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	db, err := seqdb.Create(dir)
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()
	data := workload.Stocks(workload.StockConfig{NumSequences: 120, Seed: 17})
	for i := 0; i < data.Len(); i++ {
		if err := db.Add(data.Seq(i).ID, data.Values(i)); err != nil {
			log.Fatal(err)
		}
	}
	if err := db.Save(); err != nil {
		log.Fatal(err)
	}

	// Sample queries drawn from the data (the paper's 20/50/30 band mix).
	queries := workload.Queries(data, workload.QueryConfig{Count: 5, Seed: 18})

	spec := seqdb.IndexSpec{Method: seqdb.MethodMaxEntropy, Sparse: true}
	counts := []int{5, 10, 20, 40, 80, 160}

	// A time-hungry application: a whole gigabyte of index is worth only
	// one second of query time, so the fastest count wins.
	fast, measures, err := db.SelectCategories(spec, counts, queries, 5,
		seqdb.CostModel{Wt: 1.0, Ws: 1.0 / (1024 * 1024)})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("trade-off curve (avg query seconds vs index KB):")
	for _, m := range measures {
		fmt.Printf("  %3d categories: C_t = %8.5fs   C_s = %7.0f KB\n", m.Count, m.TimeCost, m.SpaceCost)
	}
	fmt.Printf("speed-weighted choice  (Wt=1, Ws=1/GB):  %d categories\n", fast)

	// A space-hungry application (embedded device): a kilobyte of index is
	// worth as much as a millisecond of query time.
	small, _, err := db.SelectCategories(spec, counts, queries, 5,
		seqdb.CostModel{Wt: 1.0, Ws: 1.0})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("space-weighted choice  (Wt=1, Ws=1/KB):  %d categories\n", small)

	// Build the chosen index and prove it behaves.
	if err := db.BuildIndex("tuned", seqdb.IndexSpec{
		Method: seqdb.MethodMaxEntropy, Categories: fast, Sparse: true,
	}); err != nil {
		log.Fatal(err)
	}
	info, err := db.Index("tuned")
	if err != nil {
		log.Fatal(err)
	}
	matches, stats, err := db.SearchWith(context.Background(), "tuned", queries[0], 5, seqdb.SearchOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("built %q: %d KB; first query: %d matches in %v\n",
		info.Name, info.SizeBytes/1024, len(matches), stats.Elapsed)
}
