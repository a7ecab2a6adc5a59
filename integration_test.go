package twsearch_test

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"reflect"
	"testing"

	"twsearch/internal/workload"
	"twsearch/seqdb"
)

// TestIntegrationLifecycle drives the full public surface end to end:
// generate → persist → index (all methods) → range search vs scan → kNN →
// parallel search → alignment → reopen → drop.
func TestIntegrationLifecycle(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db")
	db, err := seqdb.Create(dir)
	if err != nil {
		t.Fatal(err)
	}

	data := workload.Stocks(workload.StockConfig{NumSequences: 40, AvgLen: 120, Seed: 71})
	for i := 0; i < data.Len(); i++ {
		if err := db.Add(data.Seq(i).ID, data.Values(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Save(); err != nil {
		t.Fatal(err)
	}

	specs := map[string]seqdb.IndexSpec{
		"exact":    {Method: seqdb.MethodExact},
		"el-dense": {Method: seqdb.MethodEqualLength, Categories: 16},
		"me-sst":   {Method: seqdb.MethodMaxEntropy, Categories: 24, Sparse: true},
		"km-sst":   {Method: seqdb.MethodKMeans, Categories: 12, Sparse: true},
		"windowed": {Method: seqdb.MethodMaxEntropy, Categories: 24, Sparse: true, Window: 15},
	}
	for name, spec := range specs {
		if err := db.BuildIndex(name, spec); err != nil {
			t.Fatalf("building %s: %v", name, err)
		}
	}

	queries := workload.Queries(data, workload.QueryConfig{Count: 6, Seed: 72})
	eps := 6.0

	// Every unwindowed index agrees with the scan; the windowed one is a
	// subset of it (band constraints only remove answers).
	for _, q := range queries {
		want, _, err := db.SeqScanCtx(context.Background(), q, eps)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range []string{"exact", "el-dense", "me-sst", "km-sst"} {
			got, _, err := db.SearchWith(context.Background(), name, q, eps, seqdb.SearchOptions{})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if !matchSetsEqual(got, want) {
				t.Fatalf("%s: %d matches, scan %d", name, len(got), len(want))
			}
		}
		windowed, _, err := db.SearchWith(context.Background(), "windowed", q, eps, seqdb.SearchOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if len(windowed) > len(want) {
			t.Fatalf("windowed search found more than unconstrained scan")
		}
	}

	// kNN: for each query, its own location must be the nearest neighbor.
	q := queries[0]
	knn, _, err := db.SearchKNNWith(context.Background(), "me-sst", q, 3, seqdb.SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(knn) != 3 {
		t.Fatalf("kNN returned %d", len(knn))
	}
	if knn[0].Distance != 0 && knn[1].Distance != 0 && knn[2].Distance != 0 {
		t.Fatalf("query extracted from data has no zero-distance neighbor: %+v", knn)
	}

	// Alignment on the best kNN hit.
	bestIdx := 0
	for i := range knn {
		if knn[i].Distance < knn[bestIdx].Distance {
			bestIdx = i
		}
	}
	dist, steps, err := db.Align(knn[bestIdx], q)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(dist-knn[bestIdx].Distance) > 1e-9 {
		t.Fatalf("alignment distance %v != match distance %v", dist, knn[bestIdx].Distance)
	}
	if len(steps) == 0 {
		t.Fatal("empty alignment")
	}

	// Reopen and re-verify one query per index.
	preClose := map[string][]seqdb.Match{}
	for name := range specs {
		preClose[name], _, err = db.SearchWith(context.Background(), name, q, eps, seqdb.SearchOptions{})
		if err != nil {
			t.Fatal(err)
		}
	}
	db.Close()
	re, err := seqdb.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if len(re.Indexes()) != len(specs) {
		t.Fatalf("reopened %d indexes, want %d", len(re.Indexes()), len(specs))
	}
	for name := range specs {
		got, _, err := re.SearchWith(context.Background(), name, q, eps, seqdb.SearchOptions{})
		if err != nil {
			t.Fatalf("%s after reopen: %v", name, err)
		}
		if !reflect.DeepEqual(got, preClose[name]) {
			t.Fatalf("%s: answers changed across reopen", name)
		}
	}

	// Drop everything; adding becomes legal again.
	for name := range specs {
		if err := re.DropIndex(name); err != nil {
			t.Fatal(err)
		}
	}
	if err := re.Add("post-drop", []float64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
}

// TestIntegrationArtificialScale runs a mid-sized artificial workload (the
// Figure 4/5 data) through the public API and cross-checks a handful of
// queries.
func TestIntegrationArtificialScale(t *testing.T) {
	if testing.Short() {
		t.Skip("mid-sized workload")
	}
	dir := filepath.Join(t.TempDir(), "db")
	db, err := seqdb.Create(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	data := workload.Artificial(workload.ArtificialConfig{NumSequences: 120, Len: 150, Seed: 77})
	for i := 0; i < data.Len(); i++ {
		if err := db.Add(data.Seq(i).ID, data.Values(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Save(); err != nil {
		t.Fatal(err)
	}
	if err := db.BuildIndex("sst", seqdb.IndexSpec{
		Method: seqdb.MethodMaxEntropy, Categories: 10, Sparse: true,
	}); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(78))
	for trial := 0; trial < 5; trial++ {
		seqID := fmt.Sprintf("art-%05d", rng.Intn(data.Len()))
		vals := db.Values(seqID)
		start := rng.Intn(len(vals) - 20)
		q := append([]float64(nil), vals[start:start+15]...)
		eps := 3.0 + float64(rng.Intn(10))
		want, _, err := db.SeqScanCtx(context.Background(), q, eps)
		if err != nil {
			t.Fatal(err)
		}
		got, stats, err := db.SearchWith(context.Background(), "sst", q, eps, seqdb.SearchOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if !matchSetsEqual(got, want) {
			t.Fatalf("trial %d: index %d, scan %d (eps=%v)", trial, len(got), len(want), eps)
		}
		if stats.Answers == 0 {
			t.Fatalf("trial %d: query cut from data found nothing", trial)
		}
	}
}

func matchSetsEqual(a, b []seqdb.Match) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].SeqID != b[i].SeqID || a[i].Start != b[i].Start || a[i].End != b[i].End {
			return false
		}
		if math.Abs(a[i].Distance-b[i].Distance) > 1e-9 {
			return false
		}
	}
	return true
}
