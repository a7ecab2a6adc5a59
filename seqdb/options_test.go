package seqdb

import (
	"context"
	"math"
	"math/rand"
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

// TestSearchWithDeterministic: the entry points return answers, delivery
// order and exact work counters that depend on nothing in SearchOptions —
// the Parallelism the options still carry is ignored — so a search with it
// set is byte-identical to one with the zero options, counters included.
func TestSearchWithDeterministic(t *testing.T) {
	db := newTestDB(t, 8, 60, 23)
	if err := db.BuildIndex("ix", IndexSpec{Method: MethodMaxEntropy, Categories: 8, Sparse: true}); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	rng := rand.New(rand.NewSource(29))

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
		wantK, wantKStats, err := db.SearchKNNWith(ctx, "ix", q, 4, SearchOptions{})
		if err != nil {
			t.Fatal(err)
		}

		for _, par := range []int{1, 8} {
			opts := SearchOptions{Parallelism: par}
			got, gotStats, err := db.SearchWith(ctx, "ix", q, eps, opts)
			if err != nil {
				t.Fatalf("par=%d: %v", par, err)
			}
			if !optMatchesBitIdentical(got, want) {
				t.Fatalf("par=%d q%d: SearchWith diverged from the zero options", par, qi)
			}
			if workCounters(gotStats) != workCounters(wantStats) {
				t.Fatalf("par=%d q%d: work counters diverged: %v vs %v", par, qi, workCounters(gotStats), workCounters(wantStats))
			}

			var gotVisit []Match
			if _, err := db.SearchVisitWith(ctx, "ix", q, eps, func(m Match) bool {
				gotVisit = append(gotVisit, m)
				return true
			}, opts); err != nil {
				t.Fatalf("par=%d: %v", par, err)
			}
			if !optMatchesBitIdentical(gotVisit, wantVisit) {
				t.Fatalf("par=%d q%d: visitor delivery order diverged from the zero options", par, qi)
			}

			gotK, gotKStats, err := db.SearchKNNWith(ctx, "ix", q, 4, opts)
			if err != nil {
				t.Fatalf("par=%d: %v", par, err)
			}
			if !optMatchesBitIdentical(gotK, wantK) || workCounters(gotKStats) != workCounters(wantKStats) {
				t.Fatalf("par=%d q%d: KNN diverged from the zero options", par, qi)
			}
		}
	}

	// Unknown index and nil visitor fail the same way with any options.
	if _, _, err := db.SearchWith(ctx, "nope", testValues(rng, 5), 1, SearchOptions{Parallelism: 2}); err == nil {
		t.Fatal("SearchWith on a missing index succeeded")
	}
	if _, err := db.SearchVisitWith(ctx, "ix", testValues(rng, 5), 1, nil, SearchOptions{Parallelism: 2}); err == nil {
		t.Fatal("SearchVisitWith with nil visitor succeeded")
	}
}

// workCounters is the part of SearchStats a search pins exactly: every
// counter but the index-wide pool deltas and the wall clock.
func workCounters(s SearchStats) [8]uint64 {
	return [8]uint64{s.NodesVisited, s.FilterCells, s.PostCells, s.Candidates, s.FalseAlarms, s.Answers, s.EnvelopePruned, s.LBCells}
}
