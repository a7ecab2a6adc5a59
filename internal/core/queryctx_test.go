package core

import (
	"math"
	"math/rand"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"testing"

	"twsearch/internal/categorize"
	"twsearch/internal/sequence"
)

// TestQueryCtxReuse runs many sequential queries of varying shapes through
// one index, so the pooled query contexts are reused over and over, and
// checks every answer set against both a first-run baseline and the brute
// force. Any found-list reset bug or table-rebind bug that leaks state
// from one query into the next shows up as a diff here.
func TestQueryCtxReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	data := randomWalkDataset(rng, 6, 40)
	ix, err := Build(data, filepath.Join(t.TempDir(), "reuse.twt"), Options{
		Kind: categorize.KindMaxEntropy, Categories: 8, Sparse: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()

	type probe struct {
		q   []float64
		eps float64
	}
	probes := make([]probe, 10)
	baseline := make([][]Match, len(probes))
	for i := range probes {
		probes[i] = probe{q: randomQuery(rng, 8), eps: float64(2 + rng.Intn(12))}
		ms, _, err := search(ix, probes[i].q, probes[i].eps)
		if err != nil {
			t.Fatal(err)
		}
		baseline[i] = ms
		want := bruteForce(data, probes[i].q, probes[i].eps, -1)
		if !matchesEqual(ms, want) {
			t.Fatalf("probe %d: first run already disagrees with brute force", i)
		}
	}

	// Replay the probes in a shuffled order several times: each repeat
	// reuses a pooled context previously bound to a different query.
	for round := 0; round < 5; round++ {
		order := rng.Perm(len(probes))
		for _, i := range order {
			ms, _, err := search(ix, probes[i].q, probes[i].eps)
			if err != nil {
				t.Fatalf("round %d probe %d: %v", round, i, err)
			}
			if len(ms) != len(baseline[i]) {
				t.Fatalf("round %d probe %d: %d matches, want %d",
					round, i, len(ms), len(baseline[i]))
			}
			for j := range ms {
				if ms[j].Ref != baseline[i][j].Ref ||
					math.Float64bits(ms[j].Distance) != math.Float64bits(baseline[i][j].Distance) {
					t.Fatalf("round %d probe %d match %d: %+v, want %+v",
						round, i, j, ms[j], baseline[i][j])
				}
			}
		}
	}
}

// bytesPerSearch measures steady-state heap bytes allocated per search.
func bytesPerSearch(t *testing.T, ix *Index, q []float64, eps float64) float64 {
	t.Helper()
	run := func() {
		if _, err := searchVisit(ix, q, eps, func(Match) bool { return true }); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ { // warm the context pool and buffer pool
		run()
	}
	const runs = 50
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / runs
}

// allocationFixture builds a small and a large sparse index and returns
// them with a query the filter prunes near the root and its threshold.
func allocationFixture(t *testing.T) (ixSmall, ixLarge *Index, q []float64, eps float64) {
	t.Helper()
	if raceEnabled {
		t.Skip("race instrumentation inflates allocation measurements")
	}
	rng := rand.New(rand.NewSource(78))
	small := randomWalkDataset(rng, 5, 40)
	large := randomWalkDataset(rng, 250, 400)
	if n := large.TotalElements(); n < 20000 {
		t.Fatalf("large dataset only %d elements; bump the generator", n)
	}
	// A query far outside the data's value range: the filter prunes every
	// candidate near the root, so the measurement isolates the fixed
	// per-query cost — the part that used to include a dense 4-byte-per-
	// element pending array and a full-database post-process scan.
	// Candidate-proportional work is allowed to allocate; database-
	// proportional work is not.
	q = []float64{10000, 10001, 10000, 10002, 10001}
	dir := t.TempDir()
	build := func(data *sequence.Dataset, name string) *Index {
		ix, err := Build(data, filepath.Join(dir, name), Options{
			Kind: categorize.KindMaxEntropy, Categories: 8, Sparse: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ix.Close() })
		return ix
	}
	return build(small, "small.twt"), build(large, "large.twt"), q, 4
}

// TestSearchAllocationSteadyState checks the refactor's allocation bar:
// per-query allocation must not scale with database size. A dense 4-byte
// per-element pending array would cost ~200 KB per query on the large
// index here; the pooled searchers amortize to near zero, so the bound is
// far below that floor yet loose enough not to flake.
func TestSearchAllocationSteadyState(t *testing.T) {
	ixSmall, ixLarge, q, eps := allocationFixture(t)
	smallBytes := bytesPerSearch(t, ixSmall, q, eps)
	largeBytes := bytesPerSearch(t, ixLarge, q, eps)
	n := ixLarge.Data.TotalElements()
	t.Logf("bytes/query: small=%.0f large=%.0f (large db: %d elements)",
		smallBytes, largeBytes, n)

	// Steady state must sit far below a dense per-element array.
	if limit := float64(n); largeBytes > limit {
		t.Errorf("large-db search allocates %.0f bytes/query, want < %.0f", largeBytes, limit)
	}
}

// TestFreshSearcherAllocation: a query that finds no pooled searcher —
// the first one, or the first after the garbage collector has emptied the
// pool — allocates a searcher whose size follows the query and what the
// filter pass finds, never the database: nothing in it is an array of one
// entry per database element (two of them cost 8 bytes per element).
func TestFreshSearcherAllocation(t *testing.T) {
	ixSmall, ixLarge, q, eps := allocationFixture(t)
	for _, ix := range []*Index{ixSmall, ixLarge} {
		if _, err := searchVisit(ix, q, eps, func(Match) bool { return true }); err != nil {
			t.Fatal(err)
		}
	}
	fresh := func(ix *Index) uint64 {
		runtime.GC() // the pool's searchers move to its victim cache,
		runtime.GC() // and from there to the collector
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := searchVisit(ix, q, eps, func(Match) bool { return true }); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	smallBytes, largeBytes := fresh(ixSmall), fresh(ixLarge)
	n := ixLarge.Data.TotalElements()
	t.Logf("fresh searcher: small=%d B large=%d B (large db: %d elements)", smallBytes, largeBytes, n)
	if limit := 2 * uint64(n); largeBytes > limit {
		t.Errorf("a query on a fresh searcher allocates %d bytes on the large index, want at most %d (2 per element)", largeBytes, limit)
	}
}

// TestSearchAllocationFlatInRows: a warm search's bytes do not grow with
// the rows its filter evaluates. At two query lengths, queries cut from the
// data walk thousands of envelope rows (LBCells) each, and the search
// allocates less than one byte per row — a per-row allocation anywhere on
// the filter's path costs at least eight. The collector is off and one
// scheduler thread runs the searches, so neither a collection nor a move
// to another thread's pool cache makes a search allocate a fresh searcher.
func TestSearchAllocationFlatInRows(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation inflates allocation measurements")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	data := randomWalkDataset(rand.New(rand.NewSource(79)), 200, 400)
	ix, err := Build(data, filepath.Join(t.TempDir(), "rows.twt"), Options{
		Kind: categorize.KindMaxEntropy, Categories: 8, Sparse: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	longest := 0
	for i := 1; i < data.Len(); i++ {
		if len(data.Values(i)) > len(data.Values(longest)) {
			longest = i
		}
	}
	for _, n := range []int{8, 32} {
		q := data.Values(longest)[10 : 10+n]
		st, err := searchVisit(ix, q, 1, func(Match) bool { return true })
		if err != nil {
			t.Fatal(err)
		}
		bytes := bytesPerSearch(t, ix, q, 1)
		t.Logf("|Q| = %d: %.0f bytes/query over %d envelope rows", n, bytes, st.LBCells)
		if st.LBCells < 1000 {
			t.Fatalf("|Q| = %d: only %d envelope rows; the fixture should walk thousands", n, st.LBCells)
		}
		if bytes >= float64(st.LBCells) {
			t.Errorf("|Q| = %d: %.0f bytes/query over %d envelope rows, want under one byte a row", n, bytes, st.LBCells)
		}
	}
}
