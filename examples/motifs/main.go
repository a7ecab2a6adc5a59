// Motifs: the conclusion's "rule discovery" application — find the most
// similar pairs of non-overlapping subsequences (time-series motifs) in a
// stock database, using the index's k-nearest-neighbor search as the inner
// loop instead of a quadratic all-pairs DTW sweep.
//
// Every candidate window slides over the data with a stride; for each, the
// index returns its nearest neighbors, overlapping hits are discarded, and
// the best surviving pairs are reported.
//
//	go run ./examples/motifs
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"sort"

	"twsearch/internal/workload"
	"twsearch/seqdb"
)

const (
	windowLen = 24
	stride    = 12
	topK      = 3
)

type motif struct {
	aID          string
	aStart, aEnd int
	bID          string
	bStart, bEnd int
	distance     float64
}

// overlaps reports whether [s1,e1) and [s2,e2) on the same sequence share
// elements (trivial matches, excluded as in the motif literature).
func overlaps(id1 string, s1, e1 int, id2 string, s2, e2 int) bool {
	return id1 == id2 && s1 < e2 && s2 < e1
}

func main() {
	dir, err := os.MkdirTemp("", "twsearch-motifs-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	data := workload.Stocks(workload.StockConfig{NumSequences: 25, AvgLen: 150, SigmaFrac: 0.012, Seed: 31})
	db, err := seqdb.Create(dir + "/db")
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()
	for i := 0; i < data.Len(); i++ {
		if err := db.Add(data.Seq(i).ID, data.Values(i)); err != nil {
			log.Fatal(err)
		}
	}
	if err := db.Save(); err != nil {
		log.Fatal(err)
	}
	if err := db.BuildIndex("m", seqdb.IndexSpec{
		Method:     seqdb.MethodMaxEntropy,
		Categories: 30,
		Sparse:     true,
		// Motifs compare like-for-like windows: a modest warp bound keeps
		// neighbors at comparable lengths and prunes the search hard.
		Window:       6,
		MinAnswerLen: windowLen - 6,
	}); err != nil {
		log.Fatal(err)
	}

	var motifs []motif
	windows := 0
	for i := 0; i < db.Len(); i++ {
		id := db.SequenceIDs()[i]
		vals := db.Values(id)
		for start := 0; start+windowLen <= len(vals); start += stride {
			windows++
			q := vals[start : start+windowLen]
			// Range search with a moderate radius; self-overlapping hits
			// (trivial matches) are discarded and the closest survivor
			// becomes this window's motif partner.
			matches, _, err := db.SearchWith(context.Background(), "m", q, 10, seqdb.SearchOptions{})
			if err != nil {
				log.Fatal(err)
			}
			best := motif{distance: -1}
			for _, m := range matches {
				if overlaps(m.SeqID, m.Start, m.End, id, start, start+windowLen) {
					continue
				}
				if best.distance < 0 || m.Distance < best.distance {
					best = motif{
						aID: id, aStart: start, aEnd: start + windowLen,
						bID: m.SeqID, bStart: m.Start, bEnd: m.End,
						distance: m.Distance,
					}
				}
			}
			if best.distance >= 0 {
				motifs = append(motifs, best)
			}
		}
	}
	sort.Slice(motifs, func(i, j int) bool { return motifs[i].distance < motifs[j].distance })

	fmt.Printf("scanned %d windows of %d days across %d stocks\n", windows, windowLen, db.Len())
	fmt.Printf("top %d motif pairs (most similar non-overlapping subsequences):\n", topK)
	seen := map[string]bool{}
	printed := 0
	for _, m := range motifs {
		// Deduplicate symmetric pairs.
		key1 := fmt.Sprintf("%s:%d|%s:%d", m.aID, m.aStart, m.bID, m.bStart)
		key2 := fmt.Sprintf("%s:%d|%s:%d", m.bID, m.bStart, m.aID, m.aStart)
		if seen[key1] || seen[key2] {
			continue
		}
		seen[key1] = true
		fmt.Printf("  %-12s[%3d:%3d]  ~  %-12s[%3d:%3d]  distance %.2f\n",
			m.aID, m.aStart, m.aEnd, m.bID, m.bStart, m.bEnd, m.distance)
		printed++
		if printed == topK {
			break
		}
	}
	if printed == 0 {
		log.Fatal("no motifs found")
	}
}
