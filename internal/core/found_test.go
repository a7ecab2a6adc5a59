package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// radixSort orders keys by their high halves, stably, skipping every byte
// those agree on: the result must be slices.Sort's (the low halves rise in
// the order the keys came in) at the sizes where a pass count or a bucket
// boundary changes (none, one, just under and at a full digit, many), for
// offsets that need one, two, three and four passes — and it must be in the
// buffer that pass count leaves it in, the other one handed back whole.
func TestRadixSortMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, spread := range []struct {
		passes int
		draw   func() uint32
	}{
		{1, func() uint32 { return 1<<20 + uint32(rng.Intn(256)) }},
		{2, func() uint32 { return uint32(rng.Intn(1 << 16)) }},
		{3, func() uint32 { return uint32(rng.Intn(253000)) }},
		{4, rng.Uint32},
	} {
		for _, n := range []int{0, 1, 2, 255, 256, 257, 100000} {
			a := make([]uint64, n)
			for i := range a {
				a[i] = uint64(spread.draw())<<32 | uint64(i)
			}
			if spread.passes == 4 && n >= 2 {
				j := rng.Intn(n - 1)
				a[j] = math.MaxUint32<<32 | uint64(j)
				a[n-1] = uint64(n - 1)
			}
			want := slices.Clone(a)
			slices.Sort(want)
			b := make([]uint64, n)
			sorted, other := radixSort(a, b)
			if !slices.Equal(sorted, want) {
				t.Fatalf("%d passes, %d keys: not in slices.Sort's order", spread.passes, n)
			}
			if len(other) != n || (n > 0 && &sorted[0] == &other[0]) || (n > 0 && &sorted[0] != &a[0] && &sorted[0] != &b[0]) {
				t.Fatalf("%d passes, %d keys: the two buffers were not handed back as a pair", spread.passes, n)
			}
			if inB := spread.passes%2 == 1; n >= 256 && (&sorted[0] == &b[0]) != inB {
				t.Fatalf("%d keys that need %d passes: the result is in the other buffer", n, spread.passes)
			}
		}
	}
}

// sorted through the list: 10⁵ entries over a database-sized range, twice
// on one list, in order and without allocating once the second buffer
// exists.
func TestSortedLargeNoAllocs(t *testing.T) {
	var f findings
	rng := rand.New(rand.NewSource(6))
	const n = 300000
	fill := func() {
		f.reset()
		for i := 0; i < 100000; i++ {
			f.add(rng.Intn(n), i+1)
		}
		f.add(0, 1)
		f.add(n-1, 1)
	}
	fill()
	got := f.sorted()
	if !slices.IsSorted(got) || len(got) != 100002 {
		t.Fatalf("sorted: %d keys, in order=%v", len(got), slices.IsSorted(got))
	}
	if off, _ := f.at(got[0]); off != 0 {
		t.Fatalf("first offset %d, want 0", off)
	}
	if off, end := f.at(got[len(got)-1]); off != n-1 || end != 1 {
		t.Fatalf("last entry at %d ends at %d, want %d and 1", off, end, n-1)
	}
	fill()
	if allocs := testing.AllocsPerRun(5, func() { f.sorted() }); allocs != 0 {
		t.Fatalf("sorted allocates %.1f times on a warm list, want 0", allocs)
	}
	if !slices.IsSorted(f.sorted()) {
		t.Fatal("sorted of a sorted list is out of order")
	}
}
