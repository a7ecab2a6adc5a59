package seqdb_test

import (
	"context"
	"fmt"
	"log"
	"os"

	"twsearch/seqdb"
)

// The paper's introductory example: a stock sampled daily and the same
// movement sampled every other day are identical under time warping.
func Example() {
	dir, err := os.MkdirTemp("", "seqdb-example-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	db, err := seqdb.Create(dir)
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	db.Add("daily", []float64{20, 20, 21, 21, 20, 20, 23, 23})
	db.Add("every-other-day", []float64{20, 21, 20, 23})
	db.Save()

	db.BuildIndex("main", seqdb.IndexSpec{
		Method:     seqdb.MethodMaxEntropy,
		Categories: 8,
		Sparse:     true, // the paper's SST_C
	})

	matches, _, err := db.SearchWith(context.Background(), "main", []float64{20, 21, 20, 23}, 0, seqdb.SearchOptions{})
	if err != nil {
		log.Fatal(err)
	}
	for _, m := range matches {
		fmt.Printf("%s[%d:%d] distance %g\n", m.SeqID, m.Start, m.End, m.Distance)
	}
	// Output:
	// daily[0:7] distance 0
	// daily[0:8] distance 0
	// daily[1:7] distance 0
	// daily[1:8] distance 0
	// every-other-day[0:4] distance 0
}

// Nearest-neighbor search expands the threshold until the k best answers
// are certain.
func ExampleDB_SearchKNNWith() {
	dir, err := os.MkdirTemp("", "seqdb-knn-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	db, err := seqdb.Create(dir)
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()
	db.Add("a", []float64{1, 2, 3, 4, 5, 6, 7, 8})
	db.Add("b", []float64{1, 2, 3, 9, 9, 9})
	db.Save()
	db.BuildIndex("i", seqdb.IndexSpec{Method: seqdb.MethodExact})

	matches, _, err := db.SearchKNNWith(context.Background(), "i", []float64{2, 3, 4}, 1, seqdb.SearchOptions{})
	if err != nil {
		log.Fatal(err)
	}
	m := matches[0]
	fmt.Printf("nearest: %s[%d:%d] at distance %g\n", m.SeqID, m.Start, m.End, m.Distance)
	// Output:
	// nearest: a[1:4] at distance 0
}

// Align explains a match: which query element was warped onto which data
// element (Figure 1(b) of the paper).
func ExampleDB_Align() {
	dir, err := os.MkdirTemp("", "seqdb-align-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	db, err := seqdb.Create(dir)
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()
	db.Add("s", []float64{20, 20, 21, 21})
	db.Save()
	db.BuildIndex("i", seqdb.IndexSpec{Method: seqdb.MethodExact})

	q := []float64{20, 21}
	matches, _, err := db.SearchWith(context.Background(), "i", q, 0, seqdb.SearchOptions{})
	if err != nil {
		log.Fatal(err)
	}
	// Take the whole-sequence match.
	var whole seqdb.Match
	for _, m := range matches {
		if m.Start == 0 && m.End == 4 {
			whole = m
		}
	}
	_, steps, err := db.Align(whole, q)
	if err != nil {
		log.Fatal(err)
	}
	for _, st := range steps {
		fmt.Printf("q[%d] -> s[%d]\n", st.QueryIndex, st.SeqIndex)
	}
	// Output:
	// q[0] -> s[0]
	// q[0] -> s[1]
	// q[1] -> s[2]
	// q[1] -> s[3]
}

// The multivariate extension: a database of dimension 2, whose sequences
// and queries are point-major (x1, y1, x2, y2, ...), grid-categorized, same
// engine.
func ExampleCreateDim() {
	dir, err := os.MkdirTemp("", "seqdb-vector-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	db, err := seqdb.CreateDim(dir+"/db", 2)
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()
	// The same stroke sampled at full and double rate (every point twice).
	db.Add("fast", []float64{0, 0, 2, 2, 4, 4})
	db.Add("slow", []float64{0, 0, 0, 0, 2, 2, 2, 2, 4, 4, 4, 4})
	db.Save()
	db.BuildIndex("g", seqdb.IndexSpec{Categories: 4, Sparse: true})

	matches, _, err := db.SearchWith(context.Background(), "g", []float64{0, 0, 2, 2, 4, 4}, 0, seqdb.SearchOptions{})
	if err != nil {
		log.Fatal(err)
	}
	for _, m := range matches {
		fmt.Printf("%s[%d:%d] distance %g\n", m.SeqID, m.Start, m.End, m.Distance)
	}
	// Output:
	// fast[0:3] distance 0
	// slow[0:5] distance 0
	// slow[0:6] distance 0
	// slow[1:5] distance 0
	// slow[1:6] distance 0
}
