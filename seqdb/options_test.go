package seqdb

import (
	"context"
	"math"
	"math/rand"
	"runtime"
	"testing"
)

func optMatchesBitIdentical(a, b []Match) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].SeqID != b[i].SeqID || a[i].Seq != b[i].Seq ||
			a[i].Start != b[i].Start || a[i].End != b[i].End ||
			math.Float64bits(a[i].Distance) != math.Float64bits(b[i].Distance) {
			return false
		}
	}
	return true
}

// TestSearchWithDeterministic: the *With entry points with any Parallelism
// return answers, delivery order, and exact stats byte-identical to the
// serial context entry points.
func TestSearchWithDeterministic(t *testing.T) {
	db := newTestDB(t, 8, 60, 23)
	if err := db.BuildIndex("ix", IndexSpec{Method: MethodMaxEntropy, Categories: 8, Sparse: true}); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	rng := rand.New(rand.NewSource(29))
	workerCounts := []int{1, 2, 3, runtime.GOMAXPROCS(0)}

	for qi := 0; qi < 3; qi++ {
		q := testValues(rng, 10)
		eps := float64(rng.Intn(8)) + 0.5

		want, wantStats, err := db.SearchWith(ctx, "ix", q, eps, SearchOptions{})
		if err != nil {
			t.Fatal(err)
		}
		var wantVisit []Match
		if _, err := db.SearchVisitWith(ctx, "ix", q, eps, func(m Match) bool {
			wantVisit = append(wantVisit, m)
			return true
		}, SearchOptions{}); err != nil {
			t.Fatal(err)
		}
		wantK, _, err := db.SearchKNNWith(ctx, "ix", q, 4, SearchOptions{})
		if err != nil {
			t.Fatal(err)
		}

		for _, par := range workerCounts {
			opts := SearchOptions{Parallelism: par}
			got, gotStats, err := db.SearchWith(ctx, "ix", q, eps, opts)
			if err != nil {
				t.Fatalf("par=%d: %v", par, err)
			}
			if !optMatchesBitIdentical(got, want) {
				t.Fatalf("par=%d q%d: SearchWith diverged from serial", par, qi)
			}
			if gotStats.Answers != wantStats.Answers || gotStats.FilterCells != wantStats.FilterCells ||
				gotStats.NodesVisited != wantStats.NodesVisited || gotStats.Candidates != wantStats.Candidates {
				t.Fatalf("par=%d q%d: exact stats diverged: %+v vs %+v", par, qi, gotStats, wantStats)
			}

			var gotVisit []Match
			if _, err := db.SearchVisitWith(ctx, "ix", q, eps, func(m Match) bool {
				gotVisit = append(gotVisit, m)
				return true
			}, opts); err != nil {
				t.Fatalf("par=%d: %v", par, err)
			}
			if !optMatchesBitIdentical(gotVisit, wantVisit) {
				t.Fatalf("par=%d q%d: visitor delivery order diverged from serial", par, qi)
			}

			gotK, _, err := db.SearchKNNWith(ctx, "ix", q, 4, opts)
			if err != nil {
				t.Fatalf("par=%d: %v", par, err)
			}
			if !optMatchesBitIdentical(gotK, wantK) {
				t.Fatalf("par=%d q%d: KNN diverged from serial", par, qi)
			}
		}
	}

	// Unknown index and nil visitor fail the same way as the serial API.
	if _, _, err := db.SearchWith(ctx, "nope", testValues(rng, 5), 1, SearchOptions{Parallelism: 2}); err == nil {
		t.Fatal("SearchWith on a missing index succeeded")
	}
	if _, err := db.SearchVisitWith(ctx, "ix", testValues(rng, 5), 1, nil, SearchOptions{Parallelism: 2}); err == nil {
		t.Fatal("SearchVisitWith with nil visitor succeeded")
	}
}
