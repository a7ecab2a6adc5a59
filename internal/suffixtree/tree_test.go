package suffixtree

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"twsearch/internal/categorize"
)

func syms(vals ...int) []Symbol {
	out := make([]Symbol, len(vals))
	for i, v := range vals {
		out[i] = Symbol(v)
	}
	return out
}

// storeWith builds a TextStore from symbol slices.
func storeWith(texts ...[]Symbol) *TextStore {
	ts := NewTextStore()
	for _, t := range texts {
		ts.Add(t)
	}
	return ts
}

func allSeqs(ts *TextStore) []int {
	out := make([]int, ts.Len())
	for i := range out {
		out[i] = i
	}
	return out
}

func sortedLeaves(ls []LeafInfo) []LeafInfo {
	out := append([]LeafInfo(nil), ls...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Seq != out[j].Seq {
			return out[i].Seq < out[j].Seq
		}
		return out[i].Pos < out[j].Pos
	})
	return out
}

// expectedSuffixes lists the leaves a dense or sparse tree must contain.
func expectedSuffixes(ts *TextStore, seqs []int, sparse bool) []LeafInfo {
	var out []LeafInfo
	for _, seq := range seqs {
		text := ts.Text(seq)
		positions := make([]int, 0, len(text))
		if sparse {
			positions = categorize.RunHeads(text)
		} else {
			for p := range text {
				positions = append(positions, p)
			}
		}
		for _, p := range positions {
			out = append(out, LeafInfo{
				Seq:    int32(seq),
				Pos:    int32(p),
				RunLen: int32(categorize.RunLengthAt(text, p)),
			})
		}
	}
	return sortedLeaves(out)
}

func TestTerminator(t *testing.T) {
	if Terminator(0) != -1 || Terminator(5) != -6 {
		t.Fatal("Terminator values wrong")
	}
	if !IsTerminator(Terminator(3)) || IsTerminator(0) || IsTerminator(7) {
		t.Fatal("IsTerminator wrong")
	}
}

func TestTextStoreSym(t *testing.T) {
	ts := storeWith(syms(4, 5, 6))
	if ts.Sym(0, 1) != 5 {
		t.Fatal("Sym mid wrong")
	}
	if ts.Sym(0, 3) != Terminator(0) {
		t.Fatal("Sym at end is not the terminator")
	}
}

// The store keeps its texts end to end in one array; through Text, Sym, Len
// and Flat it reads as the slice of slices it was filled from — an empty text
// and a caller reusing its buffer included.
func TestTextStoreFlat(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	ts := NewTextStore()
	var model [][]Symbol
	buf := make([]Symbol, 0, 64)
	for i := 0; i < 200; i++ {
		buf = buf[:0]
		for n := rng.Intn(40) * rng.Intn(2); n > 0; n-- { // half of them empty
			buf = append(buf, Symbol(rng.Intn(9)))
		}
		if id := ts.Add(buf); id != len(model) {
			t.Fatalf("Add returned id %d for text %d", id, len(model))
		}
		model = append(model, append([]Symbol(nil), buf...))
	}
	if ts.Len() != len(model) {
		t.Fatalf("Len = %d, want %d", ts.Len(), len(model))
	}
	flat, starts := ts.Flat()
	if len(starts) != len(model)+1 || starts[len(model)] != len(flat) {
		t.Fatalf("Flat: %d starts ending at %d for %d texts in %d symbols", len(starts), starts[len(starts)-1], len(model), len(flat))
	}
	for seq, want := range model {
		got := ts.Text(seq)
		if len(got) != len(want) || cap(got) != len(want) {
			t.Fatalf("Text(%d) has len %d cap %d, want both %d", seq, len(got), cap(got), len(want))
		}
		for pos := 0; pos <= len(want); pos++ {
			sym := Terminator(seq)
			if pos < len(want) {
				sym = want[pos]
				if got[pos] != sym {
					t.Fatalf("Text(%d)[%d] = %d, want %d", seq, pos, got[pos], sym)
				}
			}
			if ts.Sym(seq, pos) != sym || flat[starts[seq]+pos] != sym {
				t.Fatalf("text %d position %d: Sym %d, Flat %d, want %d", seq, pos, ts.Sym(seq, pos), flat[starts[seq]+pos], sym)
			}
		}
	}
}

// TestPaperFigure2 builds the suffix tree of the paper's Figure 2:
// S5 = <4,5,6,7,6,6>, S6 = <4,6,7,8>.
func TestPaperFigure2(t *testing.T) {
	ts := storeWith(syms(4, 5, 6, 7, 6, 6), syms(4, 6, 7, 8))
	tree := BuildNaive(ts, allSeqs(ts), false)
	if err := tree.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	st := tree.ComputeStats()
	if st.Leaves != 10 { // 6 suffixes of S5 + 4 of S6
		t.Fatalf("leaves = %d, want 10", st.Leaves)
	}
	// <6,7> occurs at S5[2] (0-based pos 2) and S6[1].
	got := sortedLeaves(tree.Find(syms(6, 7)))
	want := []LeafInfo{
		{Seq: 0, Pos: 2, RunLen: 1},
		{Seq: 1, Pos: 1, RunLen: 1},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Find(<6,7>) = %v, want %v", got, want)
	}
	// <4> occurs at the head of both sequences.
	if n := len(tree.Find(syms(4))); n != 2 {
		t.Fatalf("Find(<4>) returned %d occurrences, want 2", n)
	}
	// <5,6,7> occurs only in S5.
	if n := len(tree.Find(syms(5, 6, 7))); n != 1 {
		t.Fatalf("Find(<5,6,7>) returned %d occurrences, want 1", n)
	}
	// Absent patterns.
	if tree.Find(syms(9)) != nil {
		t.Fatal("Find(<9>) found something")
	}
	if tree.Find(syms(4, 5, 6, 7, 6, 6, 6)) != nil {
		t.Fatal("overlong pattern found")
	}
	if tree.Find(nil) != nil {
		t.Fatal("empty pattern found something")
	}
}

func TestNaiveSuffixSet(t *testing.T) {
	ts := storeWith(syms(1, 1, 2, 1), syms(2, 2))
	tree := BuildNaive(ts, allSeqs(ts), false)
	got := sortedLeaves(tree.Suffixes())
	want := expectedSuffixes(ts, allSeqs(ts), false)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("suffixes = %v, want %v", got, want)
	}
}

func TestSparseStoresRunHeadsOnly(t *testing.T) {
	// CS8 = <C1,C1,C1,C3,C2,C2> from Section 6.1: stored suffixes are
	// positions 0, 3, 4 (paper's 1-based 1, 4, 5).
	ts := storeWith(syms(1, 1, 1, 3, 2, 2))
	tree := BuildNaive(ts, allSeqs(ts), true)
	if err := tree.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	got := sortedLeaves(tree.Suffixes())
	want := []LeafInfo{
		{Seq: 0, Pos: 0, RunLen: 3},
		{Seq: 0, Pos: 3, RunLen: 1},
		{Seq: 0, Pos: 4, RunLen: 2},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("sparse suffixes = %v, want %v", got, want)
	}
}

func randomTexts(rng *rand.Rand, nSeq, maxLen, alphabet int) *TextStore {
	ts := NewTextStore()
	for i := 0; i < nSeq; i++ {
		n := 1 + rng.Intn(maxLen)
		text := make([]Symbol, n)
		for j := range text {
			text[j] = Symbol(rng.Intn(alphabet))
		}
		ts.Add(text)
	}
	return ts
}

func TestQuickNaiveValidates(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	f := func() bool {
		ts := randomTexts(rng, 1+rng.Intn(5), 30, 1+rng.Intn(4))
		for _, sparse := range []bool{false, true} {
			tree := BuildNaive(ts, allSeqs(ts), sparse)
			if tree.Validate() != nil {
				return false
			}
			got := sortedLeaves(tree.Suffixes())
			want := expectedSuffixes(ts, allSeqs(ts), sparse)
			if !reflect.DeepEqual(got, want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickUkkonenEqualsNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	f := func() bool {
		ts := randomTexts(rng, 1, 60, 1+rng.Intn(5))
		naive := BuildNaive(ts, []int{0}, false)
		uk := BuildUkkonen(ts, 0)
		return uk.Validate() == nil && Equal(naive, uk)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestUkkonenSingleSymbolRuns(t *testing.T) {
	// Worst case for naive sharing: one long run.
	ts := storeWith(syms(2, 2, 2, 2, 2, 2, 2, 2))
	uk := BuildUkkonen(ts, 0)
	if err := uk.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if !Equal(BuildNaive(ts, []int{0}, false), uk) {
		t.Fatal("run-heavy tree differs from naive")
	}
}

func TestQuickMergedEqualsNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(79))
	f := func() bool {
		ts := randomTexts(rng, 1+rng.Intn(6), 25, 1+rng.Intn(4))
		for _, sparse := range []bool{false, true} {
			naive := BuildNaive(ts, allSeqs(ts), sparse)
			merged := BuildMerged(ts, allSeqs(ts), sparse)
			if merged.Validate() != nil {
				return false
			}
			if !Equal(naive, merged) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestMergePanicsAcrossStores(t *testing.T) {
	a := BuildNaive(storeWith(syms(1)), []int{0}, false)
	b := BuildNaive(storeWith(syms(1)), []int{0}, false)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	Merge(a, b)
}

func TestMergePanicsMixedSparsity(t *testing.T) {
	ts := storeWith(syms(1, 2), syms(2, 1))
	a := BuildNaive(ts, []int{0}, false)
	b := BuildNaive(ts, []int{1}, true)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	Merge(a, b)
}

// Find must agree with a naive scan over all subsequences.
func TestQuickFindMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	f := func() bool {
		ts := randomTexts(rng, 1+rng.Intn(4), 20, 2)
		tree := BuildMerged(ts, allSeqs(ts), false)
		// Random pattern, sometimes present, sometimes not.
		pn := 1 + rng.Intn(5)
		pattern := make([]Symbol, pn)
		for i := range pattern {
			pattern[i] = Symbol(rng.Intn(2))
		}
		var want []LeafInfo
		for seq := 0; seq < ts.Len(); seq++ {
			text := ts.Text(seq)
			for p := 0; p+pn <= len(text); p++ {
				match := true
				for k := 0; k < pn; k++ {
					if text[p+k] != pattern[k] {
						match = false
						break
					}
				}
				if match {
					want = append(want, LeafInfo{
						Seq: int32(seq), Pos: int32(p),
						RunLen: int32(categorize.RunLengthAt(text, p)),
					})
				}
			}
		}
		got := sortedLeaves(tree.Find(pattern))
		return reflect.DeepEqual(got, sortedLeaves(want))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// The suffix tree size bound of Section 4.1: at most 2·leaves nodes
// (internal nodes have degree >= 2), i.e. linear in M·L̄.
func TestQuickSizeLinear(t *testing.T) {
	rng := rand.New(rand.NewSource(89))
	f := func() bool {
		ts := randomTexts(rng, 1+rng.Intn(5), 40, 1+rng.Intn(3))
		tree := BuildMerged(ts, allSeqs(ts), false)
		st := tree.ComputeStats()
		return st.Nodes <= 2*st.Leaves
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Categorization shrinks the tree: fewer categories → no more nodes
// (Section 5's motivation for ST_C).
func TestCoarserAlphabetSmallerTree(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	makeStore := func(alphabet int) *TextStore {
		r := rand.New(rand.NewSource(991)) // same data every time
		ts := NewTextStore()
		for i := 0; i < 10; i++ {
			text := make([]Symbol, 100)
			v := 0
			for j := range text {
				v += r.Intn(3) - 1
				a := v % alphabet
				if a < 0 {
					a += alphabet
				}
				text[j] = Symbol(a)
			}
			ts.Add(text)
		}
		return ts
	}
	_ = rng
	coarse := BuildNaive(makeStore(3), []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}, false).ComputeStats()
	fine := BuildNaive(makeStore(50), []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}, false).ComputeStats()
	if coarse.Nodes >= fine.Nodes {
		t.Fatalf("coarse alphabet tree (%d nodes) not smaller than fine (%d)", coarse.Nodes, fine.Nodes)
	}
}

func TestSparseSmallerThanDense(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	ts := NewTextStore()
	for i := 0; i < 8; i++ {
		text := make([]Symbol, 120)
		v := Symbol(0)
		for j := range text {
			if rng.Float64() < 0.3 { // long runs
				v = Symbol(rng.Intn(4))
			}
			text[j] = v
		}
		ts.Add(text)
	}
	dense := BuildNaive(ts, allSeqs(ts), false).ComputeStats()
	sparse := BuildNaive(ts, allSeqs(ts), true).ComputeStats()
	if sparse.Leaves >= dense.Leaves || sparse.Nodes >= dense.Nodes {
		t.Fatalf("sparse (%d leaves, %d nodes) not smaller than dense (%d leaves, %d nodes)",
			sparse.Leaves, sparse.Nodes, dense.Leaves, dense.Nodes)
	}
}

func TestDuplicateSuffixPanics(t *testing.T) {
	ts := storeWith(syms(1, 2))
	tree := BuildNaive(ts, []int{0}, false)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on duplicate suffix")
		}
	}()
	tree.insertSuffix(0, 0)
}

func TestEmptySequenceSkipped(t *testing.T) {
	ts := storeWith([]Symbol{}, syms(1, 2))
	tree := BuildMerged(ts, allSeqs(ts), false)
	if err := tree.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := len(tree.Suffixes()); got != 2 {
		t.Fatalf("suffixes = %d, want 2", got)
	}
}

func TestEqualDetectsDifferences(t *testing.T) {
	ts := storeWith(syms(1, 2, 1), syms(1, 2))
	a := BuildNaive(ts, []int{0}, false)
	b := BuildNaive(ts, []int{1}, false)
	if Equal(a, b) {
		t.Fatal("different trees reported equal")
	}
	c := BuildNaive(ts, []int{0}, false)
	if !Equal(a, c) {
		t.Fatal("identical trees reported unequal")
	}
}
