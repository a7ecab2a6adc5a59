package core

import (
	"context"
	"math"
	"math/rand"
	"path/filepath"
	"slices"
	"testing"

	"twsearch/internal/categorize"
	"twsearch/internal/sequence"
)

// walkKernel admits every start, keeps every start live and records what
// the verification pass hands it: each Backward call's starts and ends and
// each Verify call's start and end.
type walkKernel struct {
	Kernel
	backward [][2][]int32
	verified [][2]int
}

func (k *walkKernel) Admit(seq, from, to int, live []int32) []int32 {
	for start := from; start < to; start++ {
		live = append(live, int32(start))
	}
	return live
}

func (k *walkKernel) Backward(seq int, starts, ends []int32, live []bool, more func() bool) {
	k.backward = append(k.backward, [2][]int32{slices.Clone(starts), slices.Clone(ends)})
	for i := range live {
		live[i] = true
	}
}

func (k *walkKernel) Verify(seq, start, end int, hit func(end int, dist float64)) {
	k.verified = append(k.verified, [2]int{start, end})
}

// walkFound runs the verification pass of an index over two sequences of
// 100 and 50 values, on a searcher whose filter pass found what fill adds,
// and returns the answers it delivers and its recording kernel.
func walkFound(t *testing.T, fill func(s *searcher)) ([]Match, *walkKernel) {
	t.Helper()
	data := sequence.NewDataset()
	data.MustAdd(sequence.Sequence{ID: "a", Values: make([]float64, 100)})
	data.MustAdd(sequence.Sequence{ID: "b", Values: make([]float64, 50)})
	ix, err := Build(data, filepath.Join(t.TempDir(), "walk.twt"), Options{Kind: categorize.KindIdentity})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	inner := ix.newKernel
	ix.newKernel = func() Kernel { return &walkKernel{Kernel: inner()} }
	s := ix.queries.acquire(ix, context.Background(), []float64{0}, 1)
	defer ix.queries.release(s)
	var got []Match
	s.visit = func(m Match) bool { got = append(got, m); return true }
	fill(s)
	s.postProcess()
	return got, s.kern.(*walkKernel)
}

// A start offered twice is verified once, to the larger of its ends, and
// the backward pass sees it once with that end.
func TestFoundMergesRepeatedStart(t *testing.T) {
	_, k := walkFound(t, func(s *searcher) {
		s.candidate(0, 7, 20)
		s.candidate(0, 3, 10)
		s.candidate(0, 7, 15) // a smaller end must not shrink the furthest
		s.candidate(0, 7, 25)
		s.candidate(1, 49, 50)
	})
	want := [][2][]int32{{{3, 7}, {10, 25}}, {{49}, {50}}}
	if len(k.backward) != len(want) {
		t.Fatalf("%d backward passes, want %d", len(k.backward), len(want))
	}
	for i, w := range want {
		if !slices.Equal(k.backward[i][0], w[0]) || !slices.Equal(k.backward[i][1], w[1]) {
			t.Errorf("backward pass %d: starts %v ends %v, want %v %v", i, k.backward[i][0], k.backward[i][1], w[0], w[1])
		}
	}
	if v := [][2]int{{3, 10}, {7, 25}, {49, 50}}; !slices.Equal(k.verified, v) {
		t.Errorf("verified %v, want %v", k.verified, v)
	}
}

// An exact start's answers, found with rising ends and interleaved with
// other starts' answers and with starts to verify, are delivered in
// (sequence, start, end) order with their distances, each once.
func TestFoundKeepsExactEndsRising(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	var want []Match
	got, k := walkFound(t, func(s *searcher) {
		type run struct{ seq, start, next int }
		var runs []run
		for _, seq := range []int{0, 1} {
			for start := 0; start < 40; start += 2 + 2*rng.Intn(2) {
				runs = append(runs, run{seq, start, start + 1})
			}
		}
		for len(runs) > 0 {
			i := rng.Intn(len(runs))
			r := &runs[i]
			if rng.Intn(8) == 0 {
				s.candidate(r.seq, r.start+1, r.start+12) // odd: a start no answer holds
			}
			m := Match{Ref: sequence.Ref{Seq: r.seq, Start: r.start, End: r.next}, Distance: float64(r.next - r.start)}
			want = append(want, m)
			s.found.add(s.seqOffsets[r.seq]+r.start, r.next, m.Distance)
			if r.next += 1 + rng.Intn(4); r.next > r.start+12 {
				runs = slices.Delete(runs, i, i+1)
			}
		}
	})
	sortMatches(want)
	if !matchesBitIdentical(got, want) {
		t.Fatalf("delivered %d answers out of (sequence, start, end) order or changed, want %d", len(got), len(want))
	}
	if len(k.verified) == 0 {
		t.Fatal("no start to verify: the fixture does not interleave the two kinds")
	}
}

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
			f.add(rng.Intn(n), i+1, toVerify)
		}
		f.add(0, 1, toVerify)
		f.add(n-1, 1, toVerify)
	}
	fill()
	got := f.sorted()
	if !slices.IsSorted(got) || len(got) != 100002 {
		t.Fatalf("sorted: %d keys, in order=%v", len(got), slices.IsSorted(got))
	}
	if off, _ := f.at(got[0]); off != 0 {
		t.Fatalf("first offset %d, want 0", off)
	}
	if off, e := f.at(got[len(got)-1]); off != n-1 || e.end != 1 {
		t.Fatalf("last entry at %d ends at %d, want %d and 1", off, e.end, n-1)
	}
	fill()
	if allocs := testing.AllocsPerRun(5, func() { f.sorted() }); allocs != 0 {
		t.Fatalf("sorted allocates %.1f times on a warm list, want 0", allocs)
	}
	if !slices.IsSorted(f.sorted()) {
		t.Fatal("sorted of a sorted list is out of order")
	}
}
