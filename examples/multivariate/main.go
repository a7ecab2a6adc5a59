// Multivariate: the paper's conclusion-section extension — sequences of
// vectors, categorized by a multi-dimensional (MTAH-style) grid, indexed
// with the same suffix-tree machinery: a seqdb.DB of dimension 2, whose
// sequences and queries are point-major (x1, y1, x2, y2, ...).
//
// The example stores 2-D mouse/gesture trajectories sampled at different
// speeds and retrieves all occurrences of an "L"-shaped stroke regardless
// of how fast it was drawn, then asks for the three nearest strokes.
//
//	go run ./examples/multivariate
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"os"
	"path/filepath"

	"twsearch/seqdb"
)

// stroke generates an L-shaped 2-D trajectory starting at (x, y): 10 units
// down, then 10 units right — always the same shape, but sampled with n1
// and n2 points per leg. Fewer points = a faster hand drawing the same L.
func stroke(rng *rand.Rand, x, y float64, n1, n2 int, jitter float64) []float64 {
	var pts []float64
	for i := 1; i <= n1; i++ {
		yy := y - 10*float64(i)/float64(n1)
		pts = append(pts, x+rng.Float64()*jitter, yy+rng.Float64()*jitter)
	}
	for i := 1; i <= n2; i++ {
		xx := x + 10*float64(i)/float64(n2)
		pts = append(pts, xx+rng.Float64()*jitter, y-10+rng.Float64()*jitter)
	}
	return pts
}

// wander generates an unstructured random walk.
func wander(rng *rand.Rand, n int) []float64 {
	x, y := rng.Float64()*20, rng.Float64()*20
	var pts []float64
	for i := 0; i < n; i++ {
		x += rng.NormFloat64()
		y += rng.NormFloat64()
		pts = append(pts, x, y)
	}
	return pts
}

func main() {
	dir, err := os.MkdirTemp("", "twsearch-multivar-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	rng := rand.New(rand.NewSource(5))

	db, err := seqdb.CreateDim(filepath.Join(dir, "db"), 2)
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	// Three recordings that contain an L-stroke drawn at different speeds
	// (10+10, 20+20 and 5+5 samples for the same shape), embedded in noise,
	// plus two without.
	withL := map[string]bool{}
	for i, spec := range []struct {
		n1, n2 int
		hasL   bool
	}{
		{10, 10, true}, {20, 20, true}, {5, 5, true}, {0, 0, false}, {0, 0, false},
	} {
		id := fmt.Sprintf("gesture-%d", i)
		pts := wander(rng, 30)
		if spec.hasL {
			pts = append(pts, stroke(rng, 10, 10, spec.n1, spec.n2, 0.1)...)
		}
		pts = append(pts, wander(rng, 30)...)
		if err := db.Add(id, pts); err != nil {
			log.Fatal(err)
		}
		withL[id] = spec.hasL
	}
	if err := db.Save(); err != nil {
		log.Fatal(err)
	}

	if err := db.BuildIndex("gestures", seqdb.IndexSpec{
		Method:     seqdb.MethodMaxEntropy,
		Categories: 6, // per dimension
		Sparse:     true,
	}); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("indexed %d gestures (2-D, grid-categorized)\n", db.Len())

	// Query: the canonical L at medium speed.
	query := stroke(rand.New(rand.NewSource(99)), 10, 10, 8, 8, 0)

	ctx := context.Background()
	eps := 16.0
	matches, _, err := db.SearchWith(ctx, "gestures", query, eps, seqdb.SearchOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("L-stroke query (%d points), eps=%.0f: %d matches\n", len(query)/2, eps, len(matches))

	best := map[string]seqdb.Match{}
	for _, m := range matches {
		if b, ok := best[m.SeqID]; !ok || m.Distance < b.Distance {
			best[m.SeqID] = m
		}
	}
	for i := 0; i < db.Len(); i++ {
		id := fmt.Sprintf("gesture-%d", i)
		if m, ok := best[id]; ok {
			fmt.Printf("  %s (has L: %-5v): best match [%d:%d], distance %.2f\n",
				id, withL[id], m.Start, m.End, m.Distance)
		} else {
			fmt.Printf("  %s (has L: %-5v): no match\n", id, withL[id])
		}
		if _, ok := best[id]; ok != withL[id] {
			log.Fatalf("detection wrong for %s", id)
		}
	}

	// Nearest-neighbor view of the same question: the closest subsequences
	// all live inside the planted strokes.
	knn, _, err := db.SearchKNNWith(ctx, "gestures", query, 3, seqdb.SearchOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("3 nearest subsequences:")
	for _, m := range knn {
		fmt.Printf("  %s[%d:%d] distance %.2f\n", m.SeqID, m.Start, m.End, m.Distance)
	}

	// The guarantee carries over: the index equals the multivariate scan.
	scan, _, err := db.SeqScanCtx(ctx, query, eps)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("sequential scan agrees: %v (%d matches)\n", len(scan) == len(matches), len(scan))
}
