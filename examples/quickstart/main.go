// Quickstart: create a database, index it, and run one similarity search.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"twsearch/seqdb"
)

func main() {
	dir, err := os.MkdirTemp("", "twsearch-quickstart-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// 1. Create a database and add some sequences. These are the paper's
	// own examples: S1 is a stock sampled daily, S2 the same movement
	// sampled every other day — different lengths, same shape.
	db, err := seqdb.Create(dir)
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	must(db.Add("daily", []float64{20, 20, 21, 21, 20, 20, 23, 23}))
	must(db.Add("every-other-day", []float64{20, 21, 20, 23}))
	must(db.Add("unrelated", []float64{5, 9, 2, 8, 1, 7, 3}))
	must(db.Save())

	// 2. Build a sparse max-entropy index (the paper's best configuration,
	// SimSearch-SST_C).
	must(db.BuildIndex("main", seqdb.IndexSpec{
		Method:     seqdb.MethodMaxEntropy,
		Categories: 8,
		Sparse:     true,
	}))

	// 3. Search. Under the Euclidean distance these two series can't even
	// be compared (different lengths); under time warping they are
	// identical, so the whole "daily" sequence matches at distance 0. Every
	// search takes a context (its deadline or cancellation aborts the
	// traversal) and execution options (the zero value is serial).
	ctx := context.Background()
	query := []float64{20, 21, 20, 23}
	matches, stats, err := db.SearchWith(ctx, "main", query, 1.0, seqdb.SearchOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("query %v, eps=1: %d matches in %v\n", query, len(matches), stats.Elapsed)
	for _, m := range matches {
		fmt.Printf("  %-16s values[%d:%d]  distance=%.2f\n", m.SeqID, m.Start, m.End, m.Distance)
	}

	// 4. The guarantee: the index returns exactly what a full scan does.
	scan, _, err := db.SeqScanCtx(ctx, query, 1.0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("sequential scan agrees: %v (%d matches)\n", len(scan) == len(matches), len(scan))
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
