package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"runtime"
	"testing"

	"twsearch/internal/categorize"
)

// matchesBitIdentical demands byte-identical results: same locations, same
// IEEE-754 bits in every distance, same order.
func matchesBitIdentical(a, b []Match) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Ref != b[i].Ref ||
			math.Float64bits(a[i].Distance) != math.Float64bits(b[i].Distance) {
			return false
		}
	}
	return true
}

// exactStats strips a SearchStats down to the counters that are defined to
// be exact under parallelism (see the SearchStats doc); the advisory pool
// and wall-clock fields are excluded.
func exactStats(s SearchStats) [6]uint64 {
	return [6]uint64{s.NodesVisited, s.FilterCells, s.PostCells, s.Candidates, s.FalseAlarms, s.Answers}
}

// TestParallelSearchDeterministic is the tentpole's contract: for every
// worker count, on each of the paper's index shapes (ST, ST_C, SST_C, with
// and without a warping window), all three entry points return results
// byte-identical to the serial traversal — matches, distances, order, and
// the exact stats counters. Run under -race this also shakes out data races
// in the fork/steal/merge machinery.
func TestParallelSearchDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(401))
	dir := t.TempDir()
	vs := []variant{
		{"ST(identity,dense)", Options{Kind: categorize.KindIdentity}},
		{"STc(ME,8)", Options{Kind: categorize.KindMaxEntropy, Categories: 8}},
		{"STc(ME,6,w3)", Options{Kind: categorize.KindMaxEntropy, Categories: 6, Window: 3}},
		{"SSTc(ME,5)", Options{Kind: categorize.KindMaxEntropy, Categories: 5, Sparse: true}},
		{"SSTc(EL,8,w4)", Options{Kind: categorize.KindEqualLength, Categories: 8, Sparse: true, Window: 4}},
	}
	workerCounts := []int{1, 2, 3, runtime.GOMAXPROCS(0)}
	ctx := context.Background()

	for vi, v := range vs {
		data := randomWalkDataset(rng, 6, 40)
		ix, err := Build(data, filepath.Join(dir, fmt.Sprintf("ix-%d.twt", vi)), v.opts)
		if err != nil {
			t.Fatalf("%s: Build: %v", v.name, err)
		}
		for qi := 0; qi < 3; qi++ {
			q := randomQuery(rng, 10)
			eps := float64(rng.Intn(10)) + 0.5

			wantM, wantS, err := ix.SearchOpts(ctx, q, eps, SearchOptions{})
			if err != nil {
				t.Fatalf("%s: serial Search: %v", v.name, err)
			}
			var wantVisit []Match
			wantVS, err := ix.SearchVisitOpts(ctx, q, eps, func(m Match) bool {
				wantVisit = append(wantVisit, m)
				return true
			}, SearchOptions{})
			if err != nil {
				t.Fatalf("%s: serial SearchVisit: %v", v.name, err)
			}
			wantK, wantKS, err := ix.SearchKNNOpts(ctx, q, 5, SearchOptions{})
			if err != nil {
				t.Fatalf("%s: serial SearchKNN: %v", v.name, err)
			}

			// Shuffle the worker counts so pool reuse order varies: a pooled
			// context leaking state between parallelism levels would show up
			// as a schedule-dependent diff.
			rng.Shuffle(len(workerCounts), func(i, j int) {
				workerCounts[i], workerCounts[j] = workerCounts[j], workerCounts[i]
			})
			for _, par := range workerCounts {
				opts := SearchOptions{Parallelism: par}

				gotM, gotS, err := ix.SearchOpts(ctx, q, eps, opts)
				if err != nil {
					t.Fatalf("%s par=%d: SearchOpts: %v", v.name, par, err)
				}
				if !matchesBitIdentical(gotM, wantM) {
					t.Fatalf("%s par=%d q%d: Search diverged from serial: %d matches vs %d",
						v.name, par, qi, len(gotM), len(wantM))
				}
				if exactStats(gotS) != exactStats(wantS) {
					t.Fatalf("%s par=%d q%d: Search stats diverged: %v vs %v",
						v.name, par, qi, exactStats(gotS), exactStats(wantS))
				}

				var gotVisit []Match
				gotVS, err := ix.SearchVisitOpts(ctx, q, eps, func(m Match) bool {
					gotVisit = append(gotVisit, m)
					return true
				}, opts)
				if err != nil {
					t.Fatalf("%s par=%d: SearchVisitOpts: %v", v.name, par, err)
				}
				if !matchesBitIdentical(gotVisit, wantVisit) {
					t.Fatalf("%s par=%d q%d: visitor delivery order diverged from serial (%d vs %d answers)",
						v.name, par, qi, len(gotVisit), len(wantVisit))
				}
				if exactStats(gotVS) != exactStats(wantVS) {
					t.Fatalf("%s par=%d q%d: SearchVisit stats diverged: %v vs %v",
						v.name, par, qi, exactStats(gotVS), exactStats(wantVS))
				}

				gotK, gotKS, err := ix.SearchKNNOpts(ctx, q, 5, opts)
				if err != nil {
					t.Fatalf("%s par=%d: SearchKNNOpts: %v", v.name, par, err)
				}
				if !matchesBitIdentical(gotK, wantK) {
					t.Fatalf("%s par=%d q%d: KNN diverged from serial", v.name, par, qi)
				}
				if exactStats(gotKS) != exactStats(wantKS) {
					t.Fatalf("%s par=%d q%d: KNN stats diverged: %v vs %v",
						v.name, par, qi, exactStats(gotKS), exactStats(wantKS))
				}
			}
		}
		if err := ix.RemoveFile(); err != nil {
			t.Fatal(err)
		}
	}
}

// A visitor that stops early must halt a parallel search cleanly: no
// further deliveries, no hung workers (the -race run doubles as a leak
// check via the test's clean exit), and a nil error like the serial path.
func TestParallelVisitorEarlyStop(t *testing.T) {
	rng := rand.New(rand.NewSource(409))
	data := randomWalkDataset(rng, 6, 40)
	ix, err := Build(data, filepath.Join(t.TempDir(), "ix.twt"),
		Options{Kind: categorize.KindMaxEntropy, Categories: 6})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	q := randomQuery(rng, 8)
	const eps = 20.5

	var all []Match
	if _, err := ix.SearchVisitOpts(context.Background(), q, eps, func(m Match) bool {
		all = append(all, m)
		return true
	}, SearchOptions{}); err != nil {
		t.Fatal(err)
	}
	if len(all) < 4 {
		t.Skipf("workload produced only %d answers; early-stop needs a few", len(all))
	}

	for _, par := range []int{2, 3} {
		stopAfter := len(all) / 2
		var got []Match
		_, err := ix.SearchVisitOpts(context.Background(), q, eps, func(m Match) bool {
			got = append(got, m)
			return len(got) < stopAfter
		}, SearchOptions{Parallelism: par})
		if err != nil {
			t.Fatalf("par=%d: %v", par, err)
		}
		if len(got) != stopAfter {
			t.Fatalf("par=%d: delivered %d answers after stop at %d", par, len(got), stopAfter)
		}
		// Deliveries before the stop follow serial order, so they must be a
		// prefix of the serial stream.
		if !matchesBitIdentical(got, all[:stopAfter]) {
			t.Fatalf("par=%d: pre-stop deliveries are not the serial prefix", par)
		}
	}
}

// Cancellation must propagate through a parallel search: workers observe
// the context at the same cadence as the serial traversal, and the call
// reports ctx.Err().
func TestParallelSearchCancel(t *testing.T) {
	rng := rand.New(rand.NewSource(419))
	data := randomWalkDataset(rng, 8, 60)
	ix, err := Build(data, filepath.Join(t.TempDir(), "ix.twt"),
		Options{Kind: categorize.KindMaxEntropy, Categories: 6})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	q := randomQuery(rng, 8)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := ix.SearchOpts(ctx, q, 10.5, SearchOptions{Parallelism: 3}); err != context.Canceled {
		t.Fatalf("pre-canceled parallel search: err = %v, want context.Canceled", err)
	}

	// Cancel from inside a visitor: the stop must drain the workers without
	// deadlocking, and any reported error must be the cancellation. (Whether
	// the cancellation is observed before the search finishes is a timing
	// race, same as serial; the hard requirement is a clean drain.)
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	calls := 0
	_, err = ix.SearchVisitOpts(ctx2, q, 30.5, func(Match) bool {
		calls++
		cancel2()
		return true
	}, SearchOptions{Parallelism: 2})
	if err != nil && err != context.Canceled {
		t.Fatalf("mid-search cancel: err = %v (visitor calls %d), want nil or context.Canceled", err, calls)
	}
}
