package seqdb

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"
)

// TestConcurrentSearches runs range searches, kNN searches, streaming
// visits and metadata reads in parallel against one DB. Under -race this
// exercises the db.mu / per-index locking; the answers must match a serial
// run exactly.
func TestConcurrentSearches(t *testing.T) {
	db := newTestDB(t, 6, 50, 7)
	if err := db.BuildIndex("c", IndexSpec{Method: MethodMaxEntropy, Categories: 10, Sparse: true}); err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(8))
	queries := make([][]float64, 8)
	for i := range queries {
		queries[i] = testValues(rng, 8)
	}
	const eps = 12.0
	want := make([][]Match, len(queries))
	for i, q := range queries {
		ms, _, err := search(db, "c", q, eps)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = ms
	}

	var wg sync.WaitGroup
	for i, q := range queries {
		wg.Add(1)
		go func(i int, q []float64) {
			defer wg.Done()
			ms, _, err := search(db, "c", q, eps)
			if err != nil {
				t.Errorf("query %d: %v", i, err)
				return
			}
			if !reflect.DeepEqual(ms, want[i]) {
				t.Errorf("query %d: concurrent answers differ from serial", i)
			}
		}(i, q)
		wg.Add(1)
		go func(q []float64) {
			defer wg.Done()
			if _, _, err := searchKNN(db, "c", q, 3); err != nil {
				t.Errorf("knn: %v", err)
			}
		}(q)
		wg.Add(1)
		go func(q []float64) {
			defer wg.Done()
			n := 0
			if _, err := searchVisit(db, "c", q, eps, func(Match) bool { n++; return true }); err != nil {
				t.Errorf("visit: %v", err)
			}
		}(q)
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = db.Len()
			_ = db.SequenceIDs()
			_ = db.Values("seq-0")
			_ = db.Indexes()
			if _, err := db.Index("c"); err != nil {
				t.Errorf("index info: %v", err)
			}
		}()
	}
	wg.Wait()
}

// sameMatches reports byte-identity: every field equal and the distance
// equal down to its IEEE-754 bits (reflect.DeepEqual would treat -0 and +0
// as equal; the contract here is stricter).
func sameMatches(a, b []Match) bool {
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

// TestConcurrentHammerOneHandle drives many goroutines through one warmed
// handle, each replaying the full query batch several times with a mix of
// SearchWith, SearchVisitWith, and SearchKNNWith. Every answer must be byte-identical
// to the serial baseline: the pooled query contexts may be reused in any
// order by any goroutine and must never leak state between queries.
func TestConcurrentHammerOneHandle(t *testing.T) {
	db := newTestDB(t, 8, 60, 21)
	if err := db.BuildIndex("h", IndexSpec{Method: MethodMaxEntropy, Categories: 10, Sparse: true}); err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(22))
	queries := make([][]float64, 6)
	for i := range queries {
		queries[i] = testValues(rng, 6+i)
	}
	const eps = 14.0
	const k = 4

	wantRange := make([][]Match, len(queries))
	wantKNN := make([][]Match, len(queries))
	for i, q := range queries {
		ms, _, err := search(db, "h", q, eps)
		if err != nil {
			t.Fatal(err)
		}
		wantRange[i] = ms
		ks, _, err := searchKNN(db, "h", q, k)
		if err != nil {
			t.Fatal(err)
		}
		wantKNN[i] = ks
	}

	const workers = 8
	const rounds = 3
	ctx := context.Background()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for i, q := range queries {
					switch (w + r + i) % 3 {
					case 0:
						ms, _, err := db.SearchWith(ctx, "h", q, eps, SearchOptions{})
						if err != nil {
							t.Errorf("worker %d search %d: %v", w, i, err)
							return
						}
						if !sameMatches(ms, wantRange[i]) {
							t.Errorf("worker %d search %d: answers differ from serial", w, i)
							return
						}
					case 1:
						var got []Match
						_, err := db.SearchVisitWith(ctx, "h", q, eps, func(m Match) bool {
							got = append(got, m)
							return true
						}, SearchOptions{})
						if err != nil {
							t.Errorf("worker %d visit %d: %v", w, i, err)
							return
						}
						// Visit streams in discovery order, not sorted
						// order: compare as sets.
						if len(got) != len(wantRange[i]) {
							t.Errorf("worker %d visit %d: %d matches, want %d",
								w, i, len(got), len(wantRange[i]))
							return
						}
						want := make(map[Match]bool, len(wantRange[i]))
						for _, m := range wantRange[i] {
							want[m] = true
						}
						for _, m := range got {
							if !want[m] {
								t.Errorf("worker %d visit %d: unexpected match %+v", w, i, m)
								return
							}
						}
					case 2:
						ks, _, err := db.SearchKNNWith(ctx, "h", q, k, SearchOptions{})
						if err != nil {
							t.Errorf("worker %d knn %d: %v", w, i, err)
							return
						}
						if !sameMatches(ks, wantKNN[i]) {
							t.Errorf("worker %d knn %d: answers differ from serial", w, i)
							return
						}
					}
				}
			}
		}(w)
	}
	wg.Wait()
}

// BenchmarkSearchConcurrent measures range-search throughput on one shared
// warmed handle under b.RunParallel. Compare -cpu 1,4 runs: the refactor's
// acceptance bar is that adding workers adds throughput on one handle.
func BenchmarkSearchConcurrent(b *testing.B) {
	db, err := Create(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	rng := rand.New(rand.NewSource(31))
	for i := 0; i < 12; i++ {
		if err := db.Add(fmt.Sprintf("seq-%d", i), testValues(rng, 120)); err != nil {
			b.Fatal(err)
		}
	}
	if err := db.BuildIndex("b", IndexSpec{Method: MethodMaxEntropy, Categories: 12, Sparse: true}); err != nil {
		b.Fatal(err)
	}
	queries := make([][]float64, 8)
	for i := range queries {
		queries[i] = testValues(rng, 8)
	}
	const eps = 10.0
	if _, _, err := search(db, "b", queries[0], eps); err != nil { // warm the pool
		b.Fatal(err)
	}

	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			if _, _, err := search(db, "b", queries[i%len(queries)], eps); err != nil {
				b.Error(err)
				return
			}
			i++
		}
	})
}

// TestConcurrentBuildDrop interleaves searches through one index with
// building and dropping another: mutations must serialize against the
// readers without corrupting either index.
func TestConcurrentBuildDrop(t *testing.T) {
	db := newTestDB(t, 5, 40, 9)
	if err := db.BuildIndex("stable", IndexSpec{Method: MethodMaxEntropy, Categories: 8}); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(10))
	q := testValues(rng, 7)

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for round := 0; round < 3; round++ {
			name := fmt.Sprintf("tmp-%d", round)
			if err := db.BuildIndex(name, IndexSpec{Method: MethodEqualLength, Categories: 6}); err != nil {
				t.Errorf("build %s: %v", name, err)
				return
			}
			if err := db.DropIndex(name); err != nil {
				t.Errorf("drop %s: %v", name, err)
				return
			}
		}
	}()
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 5; round++ {
				if _, _, err := search(db, "stable", q, 10); err != nil {
					t.Errorf("search: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestConcurrentSearchesTinyPool: sixteen queries at once through a 4-page
// pool — four one-frame stripes, so readers collide on fully pinned stripes
// all the time. The pool serves them from overflow frames instead of
// failing the query: every answer equals the serial run, and afterwards
// nothing is pinned.
func TestConcurrentSearchesTinyPool(t *testing.T) {
	db := newTestDB(t, 12, 80, 31)
	if err := db.BuildIndex("tiny", IndexSpec{Method: MethodMaxEntropy, Categories: 12, PoolPages: 4}); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(32))
	queries := make([][]float64, 16)
	want := make([][]Match, len(queries))
	for i := range queries {
		queries[i] = testValues(rng, 8)
		ms, _, err := db.SearchWith(context.Background(), "tiny", queries[i], 10, SearchOptions{})
		if err != nil {
			t.Fatal(err)
		}
		want[i] = ms
	}
	var wg sync.WaitGroup
	for i, q := range queries {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 4; round++ {
				ms, _, err := db.SearchWith(context.Background(), "tiny", q, 10, SearchOptions{})
				if err != nil {
					t.Errorf("query %d: %v", i, err)
					return
				}
				if !sameMatches(ms, want[i]) {
					t.Errorf("query %d: concurrent answers differ from serial", i)
				}
			}
		}()
	}
	wg.Wait()
	tree := db.parts[0].indexes["tiny"].ix.Tree
	if n := tree.PinnedPages(); n != 0 {
		t.Fatalf("%d pages still pinned after the searches", n)
	}
	t.Logf("pool: %+v", tree.PoolStats())
}
