package disktree

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"twsearch/internal/storage"
	"twsearch/internal/suffixtree"
)

// The sort-and-stream build writes the tree the paper's construction —
// Ukkonen per sequence plus binary merges — produces, in every cell of
// alphabet × suffix set × encoding, with an empty and a duplicated text in
// the store: same nodes, same label symbols, same counters, and the very
// size where references are fixed-width (v1).
func TestBuildEqualsReference(t *testing.T) {
	rng := rand.New(rand.NewSource(211))
	dir := t.TempDir()
	shapes := []struct {
		name   string
		sparse bool
		minLen int
	}{{"dense", false, 0}, {"sparse", true, 0}, {"minlen", false, 4}}
	for _, alphabet := range []int{2, 5, 40} {
		for _, shape := range shapes {
			ts := randomTexts(rng, 12, 30, alphabet)
			ts.Add(nil)
			ts.Add(append([]Symbol(nil), ts.Text(3)...))
			want := suffixtree.BuildMergedFiltered(ts, allSeqs(ts), shape.sparse, shape.minLen)
			wantStats := want.ComputeStats()
			for _, enc := range []Encoding{EncodingV1, EncodingV2} {
				name := fmt.Sprintf("alphabet=%d/%s/%s", alphabet, shape.name, enc)
				out := filepath.Join(dir, "out.twt")
				f, stats, err := buildOpen(ts, allSeqs(ts), out, 1+rng.Intn(8), BuildOptions{
					Sparse: shape.sparse, MinSuffixLen: shape.minLen, Encoding: enc,
				})
				if err != nil {
					t.Fatalf("%s: Build: %v", name, err)
				}
				if f.Encoding() != enc || f.Sparse() != shape.sparse || f.MinSuffixLen() != want.MinSuffixLen {
					t.Fatalf("%s: build lost the file shape", name)
				}
				if _, err := f.Validate(ts); err != nil {
					t.Fatalf("%s: Validate: %v", name, err)
				}
				got, err := f.Load(ts)
				if err != nil {
					t.Fatalf("%s: Load: %v", name, err)
				}
				if !suffixtree.Equal(want, got) {
					t.Fatalf("%s: built tree differs from the reference construction", name)
				}
				if int(f.NumNodes()) != wantStats.Nodes || int(f.NumLeaves()) != wantStats.Leaves ||
					int(f.TotalLabelSymbols()) != wantStats.TotalLabel {
					t.Fatalf("%s: counters %d/%d/%d, reference %d/%d/%d", name, f.NumNodes(), f.NumLeaves(),
						f.TotalLabelSymbols(), wantStats.Nodes, wantStats.Leaves, wantStats.TotalLabel)
				}
				if stats.Suffixes != wantStats.Leaves || stats.Nodes != wantStats.Nodes {
					t.Fatalf("%s: BuildStats %+v, reference has %d leaves / %d nodes", name, stats, wantStats.Leaves, wantStats.Nodes)
				}
				if pinned := f.PinnedPages(); pinned != 0 {
					t.Fatalf("%s: %d frames still pinned", name, pinned)
				}
				size := f.SizeBytes()
				f.Close()

				df, err := CreateEncoded(filepath.Join(dir, "direct.twt"), want, 8, LayoutReference, enc)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				directSize := df.SizeBytes()
				df.Close()
				if enc == EncodingV1 && size != directSize {
					t.Fatalf("%s: built file is %d bytes, the serialized reference tree %d", name, size, directSize)
				}
			}
		}
	}
}

// Build's bytes depend on the inputs alone: not on how many goroutines sort
// the buckets or when the streamer gets each one, and not on the run. The
// inputs are the shapes the pipeline treats differently: many even buckets,
// a single bucket (the stages then run one after the other), an alphabet
// wider than the bucket table (buckets chosen by high bits and sorted from
// symbol 0), and a first bucket far larger than the rest, which the streamer
// waits for while later ones are long sorted.
func TestBuildDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(293))
	text := func(n int, sym func() Symbol) []Symbol {
		out := make([]Symbol, n)
		for i := range out {
			out[i] = sym()
		}
		return out
	}
	inputs := map[string]*suffixtree.TextStore{
		"even":       randomTexts(rng, 40, 40, 4),
		"one bucket": suffixtree.NewTextStore(),
		"wide":       suffixtree.NewTextStore(),
		"slow first": suffixtree.NewTextStore(),
	}
	for i := 0; i < 30; i++ {
		inputs["one bucket"].Add(text(1+rng.Intn(40), func() Symbol { return 3 }))
		inputs["wide"].Add(text(1+rng.Intn(40), func() Symbol { return Symbol(rng.Intn(4) + (maxBuckets+5)*rng.Intn(3)) }))
		inputs["slow first"].Add(text(400, func() Symbol { return Symbol(rng.Intn(50) / 40 * rng.Intn(9)) })) // four in five are symbol 0
	}
	for name, ts := range inputs {
		for _, enc := range []Encoding{EncodingV1, EncodingV2} {
			var want []byte
			for _, procs := range []int{1, 2, 4, 4} {
				prev := runtime.GOMAXPROCS(procs)
				path := filepath.Join(t.TempDir(), "det.twt")
				_, err := Build(ts, allSeqs(ts), path, BuildOptions{Encoding: enc})
				runtime.GOMAXPROCS(prev)
				if err != nil {
					t.Fatalf("%s/%s: %v", name, enc, err)
				}
				raw, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				if want == nil {
					want = raw
				} else if !bytes.Equal(want, raw) {
					t.Fatalf("%s/%s: Build at GOMAXPROCS=%d differs from the GOMAXPROCS=1 file", name, enc, procs)
				}
			}
		}
		f, err := buildMem(ts, allSeqs(ts), BuildOptions{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, err := f.Load(ts)
		f.Close()
		if err != nil || !suffixtree.Equal(suffixtree.BuildMerged(ts, allSeqs(ts), false), got) {
			t.Fatalf("%s: built tree differs from the reference construction (Load: %v)", name, err)
		}
	}
}

// A build that fails — here on a sequence listed twice, whose suffixes tie
// through their terminators — reports which suffix, leaves the index
// directory exactly as it found it and no goroutine behind: with the
// duplicate in the first bucket, before anything is written, and in the
// last, found by a worker while the streamer is chunks into the file.
func TestBuildFailureLeavesNoScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(311))
	ts := randomTexts(rng, 4, 20, 3)
	late := suffixtree.NewTextStore()
	for i := 0; i < 40; i++ {
		text := make([]Symbol, 400)
		for j := range text {
			text[j] = Symbol(rng.Intn(8))
		}
		late.Add(text)
	}
	last := late.Add([]Symbol{9, 9, 9}) // alone in the last bucket
	for _, c := range []struct {
		name    string
		ts      *suffixtree.TextStore
		seqs    []int
		culprit func(seq int) bool
	}{
		{"first bucket", ts, []int{0, 1, 2, 3, 0, 1}, func(seq int) bool { return seq <= 1 }},
		{"last bucket", late, append(allSeqs(late), last), func(seq int) bool { return seq == last }},
	} {
		dir := t.TempDir()
		keep := filepath.Join(dir, "bystander")
		if err := os.WriteFile(keep, []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
		for _, procs := range []int{1, 4} {
			prev := runtime.GOMAXPROCS(procs)
			before := runtime.NumGoroutine()
			_, err := Build(c.ts, c.seqs, filepath.Join(dir, "fail.twt"), BuildOptions{})
			after := goroutinesAfter(before)
			runtime.GOMAXPROCS(prev)
			var dup *DuplicateSuffixError
			if !errors.As(err, &dup) || !c.culprit(dup.Seq) {
				t.Fatalf("%s: sequences listed twice: err = %v, want a DuplicateSuffixError on one of them", c.name, err)
			}
			if after > before {
				t.Errorf("%s, GOMAXPROCS=%d: %d goroutines after the failed build, %d before", c.name, procs, after, before)
			}
			entries, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			if len(entries) != 1 || entries[0].Name() != "bystander" {
				names := make([]string, len(entries))
				for i, e := range entries {
					names[i] = e.Name()
				}
				t.Fatalf("%s: failed build left %v in the index directory", c.name, names)
			}
		}
	}
	var dup *DuplicateSuffixError
	if _, err := buildMem(ts, []int{2, 2}, BuildOptions{}); !errors.As(err, &dup) || dup.Seq != 2 {
		t.Fatalf("in-memory build of {2, 2}: err = %v, want a DuplicateSuffixError on sequence 2", err)
	}
}

// goroutinesAfter returns the goroutine count once it is back to before, or
// what it still is after two seconds: a goroutine that has signalled its end
// may be counted for a moment longer. Callers fail only on a count above
// before: an earlier test's goroutine still exiting when before was sampled
// may be gone by now, while a leak stays above before for the whole wait.
func goroutinesAfter(before int) int {
	for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(time.Millisecond) {
		if n := runtime.NumGoroutine(); n <= before || time.Now().After(deadline) {
			return n
		}
	}
}

// failingSink passes chunks on to the file until the one numbered failAt,
// which it refuses, and counts what it is offered.
type failingSink struct {
	pf     *storage.File
	failAt int
	seen   int
}

var errInjected = errors.New("injected append failure")

func (s *failingSink) AppendPages(buf []byte) (storage.PageID, error) {
	s.seen++
	if s.seen-1 == s.failAt {
		return storage.InvalidPage, errInjected
	}
	return s.pf.AppendPages(buf)
}

func (s *failingSink) WriteBack(id storage.PageID, n int) { s.pf.WriteBack(id, n) }

// A page the sequential writer cannot append is an error from whatever was
// writing the tree, not a silently short file: on a file that rejects every
// append, and with the flusher's write of the first, a middle and the last
// chunk failing under a build that is still sorting and streaming. The
// error is the write's own, nothing is written after it, and every goroutine
// of the build has exited when it is returned.
func TestWriteFailureSurfaces(t *testing.T) {
	ts := suffixtree.NewTextStore()
	ts.Add([]Symbol{1, 2, 1})
	path := filepath.Join(t.TempDir(), "ro.twt")
	pf, err := storage.CreateFile(path)
	if err != nil {
		t.Fatal(err)
	}
	pf.Close()
	readOnly := func() *storage.File {
		pf, err := storage.OpenFile(path, true)
		if err != nil {
			t.Fatal(err)
		}
		return pf
	}
	if err := createOn(readOnly(), suffixtree.BuildNaive(ts, []int{0}, false), EncodingV1); err == nil {
		t.Error("createOn onto a file that rejects appends succeeded")
	}
	if _, err := buildOn(readOnly(), ts, []int{0}, BuildOptions{}); err == nil {
		t.Error("buildOn onto a file that rejects appends succeeded")
	}

	rng := rand.New(rand.NewSource(317))
	big := randomTexts(rng, 120, 400, 6) // a tree of several chunks in v1's wide records
	build := func(failAt int) (*failingSink, error) {
		pf, err := storage.CreateMemFile()
		if err != nil {
			t.Fatal(err)
		}
		w := newTreeWriter(pf, meta{enc: EncodingV1})
		sink := &failingSink{pf: pf, failAt: failAt}
		w.app.sink = sink
		before := runtime.NumGoroutine()
		_, err = buildWith(w, big, allSeqs(big), BuildOptions{})
		if after := goroutinesAfter(before); after > before {
			t.Errorf("chunk %d failing: %d goroutines after the build, %d before", failAt, after, before)
		}
		if err == nil {
			pf.Close()
		}
		return sink, err
	}
	whole, err := build(-1)
	if err != nil || whole.seen < 3 {
		t.Fatalf("unhindered build: %d chunks, err = %v; the input should make at least 3", whole.seen, err)
	}
	for _, failAt := range []int{0, whole.seen / 2, whole.seen - 1} {
		for _, procs := range []int{1, 4} {
			prev := runtime.GOMAXPROCS(procs)
			sink, err := build(failAt)
			runtime.GOMAXPROCS(prev)
			if !errors.Is(err, errInjected) {
				t.Errorf("chunk %d of %d failing: err = %v, want the injected error", failAt, whole.seen, err)
			}
			if sink.seen != failAt+1 {
				t.Errorf("chunk %d of %d failing: the file was offered %d chunks", failAt, whole.seen, sink.seen)
			}
		}
	}
}

func TestBuildStats(t *testing.T) {
	rng := rand.New(rand.NewSource(239))
	ts := randomTexts(rng, 10, 20, 3)
	f, stats, err := buildOpen(ts, allSeqs(ts), filepath.Join(t.TempDir(), "st.twt"), 8, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if stats.Suffixes != int(f.NumLeaves()) || stats.Nodes != int(f.NumNodes()) {
		t.Errorf("stats count %d suffixes / %d nodes, the file %d / %d", stats.Suffixes, stats.Nodes, f.NumLeaves(), f.NumNodes())
	}
	// The two spans overlap, so each fits in Elapsed but their sum need not.
	for name, span := range map[string]time.Duration{"SortElapsed": stats.SortElapsed, "WriteElapsed": stats.WriteElapsed} {
		if span <= 0 || span > stats.Elapsed {
			t.Errorf("%s = %v, want in (0, Elapsed = %v]", name, span, stats.Elapsed)
		}
	}
}

// FuzzBuildVsNaive splits arbitrary bytes into short texts over a small
// alphabet and requires Build to produce the tree suffix insertion does.
func FuzzBuildVsNaive(f *testing.F) {
	f.Add([]byte{0, 1, 2, 1, 1, 0xFF, 2, 1, 1}, byte(3), false, byte(0))
	f.Add([]byte{5, 5, 5, 5, 0xFF, 5, 5, 5, 5, 0xFF, 0xFF, 5}, byte(1), true, byte(2))
	f.Add([]byte{9, 8, 7, 6, 5, 4, 3, 2, 1}, byte(200), false, byte(5))
	f.Fuzz(func(t *testing.T, raw []byte, alphabet byte, sparse bool, minLen byte) {
		if len(raw) > 256 {
			raw = raw[:256]
		}
		ts := suffixtree.NewTextStore()
		for _, part := range bytes.Split(raw, []byte{0xFF}) {
			text := make([]Symbol, len(part))
			for i, c := range part {
				text[i] = Symbol(int(c) % (int(alphabet) + 1))
			}
			ts.Add(text)
		}
		want := suffixtree.BuildFiltered(ts, allSeqs(ts), sparse, int(minLen%8))
		df, err := buildMem(ts, allSeqs(ts), BuildOptions{Sparse: sparse, MinSuffixLen: int(minLen % 8), Encoding: EncodingV2})
		if err != nil {
			t.Fatal(err)
		}
		defer df.Close()
		if _, err := df.Validate(ts); err != nil {
			t.Fatal(err)
		}
		got, err := df.Load(ts)
		if err != nil {
			t.Fatal(err)
		}
		if !suffixtree.Equal(want, got) {
			t.Fatal("built tree differs from suffix insertion")
		}
	})
}

// An alphabet wider than the counting sort's table is bucketed by high
// bits, so one bucket holds several first symbols and sorts from symbol 0.
func TestBuildWideAlphabet(t *testing.T) {
	rng := rand.New(rand.NewSource(313))
	ts := suffixtree.NewTextStore()
	for i := 0; i < 20; i++ {
		text := make([]Symbol, 1+rng.Intn(40))
		for j := range text {
			text[j] = Symbol(rng.Intn(4) + (maxBuckets+5)*rng.Intn(3))
		}
		ts.Add(text)
	}
	f, err := buildMem(ts, allSeqs(ts), BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	got, err := f.Load(ts)
	if err != nil {
		t.Fatal(err)
	}
	if !suffixtree.Equal(suffixtree.BuildNaive(ts, allSeqs(ts), false), got) {
		t.Fatal("wide-alphabet build differs from suffix insertion")
	}
}
