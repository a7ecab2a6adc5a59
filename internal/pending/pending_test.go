package pending

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

func TestSetBasics(t *testing.T) {
	var s Set
	s.Reset(100)
	if s.Len() != 0 {
		t.Fatalf("fresh set has %d entries", s.Len())
	}
	s.Add(7, 20)
	s.Add(3, 10)
	s.Add(7, 15) // smaller end must not shrink the recorded max
	s.Add(7, 25)
	s.Add(99, 99)
	if s.Len() != 3 {
		t.Fatalf("Len = %d, want 3", s.Len())
	}
	got := s.Sorted()
	if !slices.Equal(got, []int32{3, 7, 99}) {
		t.Fatalf("Sorted = %v", got)
	}
	if s.MaxEnd(7) != 25 || s.MaxEnd(3) != 10 || s.MaxEnd(99) != 99 {
		t.Fatalf("MaxEnd: %d %d %d", s.MaxEnd(3), s.MaxEnd(7), s.MaxEnd(99))
	}
}

// TestSetEpochReuse runs many queries through one Set and checks entries
// never leak across Reset — including when the same offsets recur.
func TestSetEpochReuse(t *testing.T) {
	var s Set
	rng := rand.New(rand.NewSource(1))
	ref := make(map[int32]int32)
	for query := 0; query < 200; query++ {
		s.Reset(50)
		clear(ref)
		for i := 0; i < rng.Intn(30); i++ {
			off := int32(rng.Intn(50))
			end := int32(rng.Intn(1000))
			s.Add(off, end)
			if e, ok := ref[off]; !ok || end > e {
				ref[off] = end
			}
		}
		if s.Len() != len(ref) {
			t.Fatalf("query %d: Len = %d, want %d", query, s.Len(), len(ref))
		}
		for _, off := range s.Sorted() {
			want, ok := ref[off]
			if !ok {
				t.Fatalf("query %d: stale offset %d leaked", query, off)
			}
			if s.MaxEnd(off) != want {
				t.Fatalf("query %d: MaxEnd(%d) = %d, want %d", query, off, s.MaxEnd(off), want)
			}
		}
	}
}

// TestSetWraparound forces the epoch counter through zero and checks stale
// stamps cannot masquerade as current entries.
func TestSetWraparound(t *testing.T) {
	var s Set
	s.Reset(4)
	s.Add(2, 9)
	s.epoch = ^uint32(0) - 1 // two Resets away from wrapping
	s.Reset(4)               // epoch = max
	s.Add(1, 5)
	s.Reset(4) // wraps: stamps cleared, epoch restarts at 1
	if s.epoch != 1 {
		t.Fatalf("epoch after wrap = %d, want 1", s.epoch)
	}
	if s.Len() != 0 {
		t.Fatalf("entries survived wraparound: %v", s.Sorted())
	}
	s.Add(3, 7)
	if got := s.Sorted(); !slices.Equal(got, []int32{3}) {
		t.Fatalf("Sorted after wrap = %v", got)
	}
}

// TestSetResize checks Reset with a different element count reallocates
// cleanly.
func TestSetResize(t *testing.T) {
	var s Set
	s.Reset(10)
	s.Add(9, 1)
	s.Reset(1000)
	if s.Len() != 0 {
		t.Fatal("entries survived resize")
	}
	s.Add(999, 3)
	if s.MaxEnd(999) != 3 {
		t.Fatal("Add after resize lost")
	}
}

// Sorted orders by radix passes, skipping every byte the keys agree on: the
// result must be slices.Sort's at the sizes where a pass count or a bucket
// boundary changes (none, one, just under and at a full digit, many), for
// keys packed into one byte's range, spread over all four, and holding both
// ends of int32 — and the buffer not returned must be the other one, whole,
// whichever of the two the last pass landed in.
func TestRadixSortMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	spreads := map[string]func() int32{
		"one byte":   func() int32 { return 1<<20 + int32(rng.Intn(256)) },
		"two bytes":  func() int32 { return int32(rng.Intn(1 << 16)) },
		"database":   func() int32 { return int32(rng.Intn(253000)) },
		"four bytes": func() int32 { return int32(rng.Uint32()) },
	}
	for name, draw := range spreads {
		for _, n := range []int{0, 1, 2, 255, 256, 257, 100000} {
			a := make([]int32, n)
			for i := range a {
				a[i] = draw()
			}
			if name == "four bytes" && n >= 2 {
				a[rng.Intn(n)] = math.MaxInt32
				a[rng.Intn(n)] = math.MinInt32
			}
			want := slices.Clone(a)
			slices.Sort(want)
			b := make([]int32, n)
			sorted, other := radixSort(a, b)
			if !slices.Equal(sorted, want) {
				t.Fatalf("%s, %d keys: not in slices.Sort's order", name, n)
			}
			if len(other) != n || (n > 0 && &sorted[0] == &other[0]) || (n > 0 && &sorted[0] != &a[0] && &sorted[0] != &b[0]) {
				t.Fatalf("%s, %d keys: the two buffers were not handed back as a pair", name, n)
			}
		}
	}
}

// Sorted through the set: 10⁵ offsets over a database-sized range, twice on
// one set, in order and without allocating once the second buffer exists.
func TestSortedLargeNoAllocs(t *testing.T) {
	var s Set
	rng := rand.New(rand.NewSource(6))
	const n = 300000
	fill := func() {
		s.Reset(n)
		for i := 0; i < 100000; i++ {
			s.Add(int32(rng.Intn(n)), int32(i+1))
		}
		s.Add(0, 1)
		s.Add(n-1, 1)
	}
	fill()
	got := s.Sorted()
	if !slices.IsSorted(got) || got[0] != 0 || got[len(got)-1] != n-1 || len(got) != s.Len() {
		t.Fatalf("Sorted: %d offsets, sorted=%v", len(got), slices.IsSorted(got))
	}
	for _, off := range got {
		if s.MaxEnd(off) < 1 {
			t.Fatalf("offset %d lost its end", off)
		}
	}
	fill()
	if allocs := testing.AllocsPerRun(5, func() { s.Sorted() }); allocs != 0 {
		t.Fatalf("Sorted allocates %.1f times on a warm set, want 0", allocs)
	}
	if !slices.IsSorted(s.Sorted()) {
		t.Fatal("Sorted of a sorted set is out of order")
	}
}
