// CBF: 1-nearest-neighbor classification under time warping on the classic
// Cylinder–Bell–Funnel benchmark — the canonical sanity check for a DTW
// matcher, and a direct use of the library's kNN search.
//
// Instances of one class differ in event onset, duration and amplitude;
// time warping absorbs the onset/duration variation that defeats lock-step
// distances. Each test instance is classified by the label of its nearest
// indexed subsequence.
//
//	go run ./examples/cbf
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"os"
	"strings"

	"twsearch/internal/workload"
	"twsearch/seqdb"
)

func main() {
	dir, err := os.MkdirTemp("", "twsearch-cbf-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// Training set: 20 instances per class, indexed once.
	train, _ := workload.CBF(workload.CBFConfig{PerClass: 20, Seed: 101})
	db, err := seqdb.Create(dir + "/db")
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()
	for i := 0; i < train.Len(); i++ {
		if err := db.Add(train.Seq(i).ID, train.Values(i)); err != nil {
			log.Fatal(err)
		}
	}
	if err := db.Save(); err != nil {
		log.Fatal(err)
	}
	if err := db.BuildIndex("cbf", seqdb.IndexSpec{
		Method:     seqdb.MethodMaxEntropy,
		Categories: 16,
		Sparse:     true,
		// CBF instances are whole patterns: bound the warp and skip
		// subsequences too short to be a full event.
		Window:       40,
		MinAnswerLen: 100,
	}); err != nil {
		log.Fatal(err)
	}

	// Test set: fresh instances, classified by the nearest indexed
	// subsequence's owning class (recoverable from the sequence id).
	rng := rand.New(rand.NewSource(202))
	classes := []workload.CBFClass{workload.Cylinder, workload.Bell, workload.Funnel}
	correct, total := 0, 0
	confusion := map[string]int{}
	for _, class := range classes {
		for trial := 0; trial < 10; trial++ {
			q := workload.CBFInstance(rng, class, 128, 0.5)
			nn, _, err := db.SearchKNNWith(context.Background(), "cbf", q, 1, seqdb.SearchOptions{})
			if err != nil {
				log.Fatal(err)
			}
			if len(nn) == 0 {
				log.Fatalf("no neighbor found for a %s query", class)
			}
			predicted := strings.SplitN(nn[0].SeqID, "-", 2)[0]
			confusion[fmt.Sprintf("%s->%s", class, predicted)]++
			if predicted == class.String() {
				correct++
			}
			total++
		}
	}

	fmt.Printf("1-NN DTW classification on Cylinder-Bell-Funnel: %d/%d correct (%.0f%%)\n",
		correct, total, 100*float64(correct)/float64(total))
	for _, class := range classes {
		fmt.Printf("  %s:", class)
		for _, predicted := range classes {
			if n := confusion[fmt.Sprintf("%s->%s", class, predicted)]; n > 0 {
				fmt.Printf("  %d as %s", n, predicted)
			}
		}
		fmt.Println()
	}
	if correct < total*4/5 {
		log.Fatal("accuracy below 80% — something is wrong with the matcher")
	}
}
