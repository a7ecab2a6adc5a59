package core

import (
	"bytes"
	"path/filepath"
	"sort"
	"testing"

	"twsearch/internal/categorize"
	"twsearch/internal/sequence"
)

// FuzzSearchMatchesScan derives a tiny database and query from fuzz bytes
// and asserts the end-to-end no-false-dismissal equality on an ME index —
// sparse, with and without a warping window, or dense, or an identity index,
// optionally with an answer-length floor — the whole stack under fuzz:
// deferred collection, leaf verification (on every tree, an identity one's
// exact filter rows included), the first-element test and thresholded
// verification rows included — for the range search, down to
// eps = 0 where only exact hits are live, and for the k-NN loop, whose
// answer must be the k best of the exhaustive scan by (distance, position).
// Values are small integers, so distances are exact and ties at the k-th
// distance are common: position must break them. shape picks the index:
// bit 0 the identity categorization, bit 1 a dense tree, bits 2-3 the
// answer-length floor; bit 4 sets eps to the exact distance of one scan
// answer (epsRaw picks which), a tie that every pruning and candidate test
// must keep; bit 5 reads the bytes as points of dimension 2, searched
// through a grid.
func FuzzSearchMatchesScan(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, []byte{2, 3, 4}, uint8(10), uint8(3), uint8(0), uint8(0))
	f.Add([]byte{9, 9, 9, 9, 9, 1}, []byte{9, 9}, uint8(2), uint8(1), uint8(0), uint8(0))
	f.Add([]byte{4, 4, 4, 4, 9, 9, 9, 4, 4, 4, 4, 4, 9, 9, 2, 2}, []byte{4, 4, 9, 9}, uint8(250), uint8(2), uint8(2), uint8(0))
	f.Add([]byte{1, 1, 1, 5, 5, 5, 5, 1, 1, 1, 1, 5, 5, 6, 5, 5, 1, 1}, []byte{1, 1, 5, 5, 5}, uint8(6), uint8(1), uint8(3), uint8(0))
	// Leading runs far longer than |Q|: a reached leaf hands over every
	// shifted start of its run.
	f.Add([]byte{3, 3, 3, 3, 3, 3, 3, 3, 3, 7, 7, 7, 7, 7, 7, 7, 3, 3, 3, 3, 3, 3, 3, 3, 4, 4}, []byte{3, 7}, uint8(5), uint8(1), uint8(0), uint8(0))
	// An answer-length floor of 3, over runs.
	f.Add([]byte{2, 2, 2, 2, 2, 6, 6, 6, 2, 2, 2, 2, 2, 2, 6, 6, 6, 6, 2, 2}, []byte{2, 6, 6}, uint8(4), uint8(1), uint8(0), uint8(3<<2))
	// Sparse under a window, runs longer than |Q| + w.
	f.Add([]byte{5, 5, 5, 5, 5, 5, 5, 5, 1, 1, 1, 1, 1, 1, 5, 5, 5, 5, 5, 5, 5, 1, 1, 1}, []byte{5, 5, 1}, uint8(3), uint8(1), uint8(2), uint8(0))
	// Identity, dense: exact filter rows prune, and verification decides
	// the starts of the leaves they reach.
	f.Add([]byte{1, 2, 3, 2, 1, 2, 3, 4, 3, 2, 1, 2}, []byte{2, 3, 2}, uint8(2), uint8(0), uint8(0), uint8(3))
	// Identity, sparse under a window: an unconstrained filter under a
	// banded answer.
	f.Add([]byte{1, 1, 1, 2, 3, 3, 2, 1, 1, 2, 2, 2, 3, 1}, []byte{1, 2, 3}, uint8(2), uint8(0), uint8(2), uint8(1|2<<2))
	// eps at an answer's exact distance, over long runs: a sparse identity
	// tree, whose shifted starts are candidates by their discounted filter
	// distance, and a sparse ME tree.
	f.Add([]byte{2, 2, 2, 2, 2, 2, 2, 3, 3, 3, 3, 3, 3, 1, 1, 1, 1, 1, 1, 2, 1, 0, 0, 0, 0}, []byte{3, 0, 0, 3}, uint8(31), uint8(0), uint8(0), uint8(1|16))
	f.Add([]byte{0, 0, 0, 3, 0, 0, 0, 1, 1, 1, 0, 0, 0, 3, 3, 3, 0, 0, 0, 0, 0, 0}, []byte{0, 0, 0}, uint8(2), uint8(1), uint8(0), uint8(16))
	// Dimension 2: the same shapes over points.
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 1, 2, 3, 4, 5, 6, 7, 8}, []byte{2, 3, 4, 5}, uint8(10), uint8(3), uint8(0), uint8(32))
	f.Add([]byte{9, 9, 9, 9, 9, 9, 9, 9, 9, 1, 9, 9}, []byte{9, 9, 9, 9}, uint8(2), uint8(1), uint8(2), uint8(32))
	f.Add([]byte{4, 4, 4, 4, 4, 4, 9, 2, 9, 2, 4, 4, 4, 4, 4, 4, 9, 2, 9, 2, 9, 2}, []byte{4, 4, 4, 4, 9, 2}, uint8(250), uint8(2), uint8(0), uint8(32))
	f.Add([]byte{1, 1, 1, 1, 1, 1, 5, 5, 5, 5, 1, 1, 1, 1, 1, 1, 5, 5, 5, 6}, []byte{1, 1, 5, 5, 5, 5}, uint8(244), uint8(1), uint8(3), uint8(32))
	f.Add([]byte{3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 7, 7, 7, 7, 7, 7, 7, 7, 3, 3, 3, 3, 3, 3, 3, 3}, []byte{3, 3, 7, 7}, uint8(4), uint8(1), uint8(0), uint8(32))
	f.Add([]byte{2, 2, 2, 2, 2, 2, 6, 6, 6, 6, 2, 2, 2, 2, 2, 2, 6, 6, 6, 6}, []byte{2, 2, 6, 6, 6, 6}, uint8(5), uint8(1), uint8(0), uint8(32|3<<2))
	f.Add([]byte{5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 1, 1, 1, 1, 1, 1, 1, 1, 5, 5, 5, 5}, []byte{5, 5, 1, 1}, uint8(3), uint8(1), uint8(2), uint8(32))
	f.Add([]byte{1, 2, 2, 3, 3, 2, 2, 1, 1, 2, 2, 3, 3, 4, 4, 3}, []byte{2, 3, 3, 2}, uint8(2), uint8(0), uint8(0), uint8(32|3))
	f.Add([]byte{2, 0, 2, 0, 2, 0, 2, 0, 2, 0, 2, 0, 2, 0, 0, 2, 0, 2, 0, 2, 0, 2, 0, 2, 0, 2, 1, 0, 1, 0, 0, 2, 0, 2, 0, 2, 1, 2, 1, 2, 1, 2, 1, 2, 2, 1, 2, 1, 2, 1, 2, 1, 2, 1, 2, 1, 2, 1, 0, 0, 0, 0, 0, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 0, 2, 0, 2, 0, 2, 0, 2, 0, 2, 0, 2, 1, 0, 1, 0}, []byte{0, 2, 0, 2}, uint8(156), uint8(0), uint8(0), uint8(32|1|16))
	f.Add([]byte{2, 1, 2, 1, 2, 1, 2, 1, 2, 1, 2, 1, 2, 1, 2, 0, 2, 0, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 1, 2, 1, 2, 1, 2, 1, 2, 1, 2, 1, 2, 1, 2, 0, 2, 0, 2, 0, 2, 0, 0, 2, 0, 2, 0, 2, 0, 2, 0, 2, 0, 2, 0, 2, 2, 0, 2, 0, 2, 0, 1, 0, 1, 0, 1, 0}, []byte{2, 2, 2, 2}, uint8(149), uint8(1), uint8(0), uint8(32|16))
	f.Fuzz(func(t *testing.T, seqBytes, qBytes []byte, epsRaw, catsRaw, windowRaw, shape uint8) {
		dim := 1 + int(shape>>5&1)
		if len(seqBytes) < 4*dim || len(qBytes) < dim {
			return
		}
		seqBytes, qBytes = seqBytes[:min(len(seqBytes), 48*dim)], qBytes[:min(len(qBytes), 8*dim)]
		values := func(b []byte) []float64 { // whole points only
			vals := make([]float64, len(b)/dim*dim)
			for j := range vals {
				vals[j] = float64(int(b[j]) % 32)
			}
			return vals
		}
		// Two sequences cut from the byte stream.
		data := sequence.NewDatasetDim(dim)
		half := len(seqBytes) / (2 * dim) * dim
		for i, chunk := range [][]byte{seqBytes[:half], seqBytes[half:]} {
			data.MustAdd(sequence.Sequence{ID: string(rune('a' + i)), Values: values(chunk)})
		}
		q := values(qBytes)
		eps := float64(epsRaw%40) + 0.5
		if epsRaw >= 240 {
			eps = 0
		}
		cats := int(catsRaw)%8 + 1
		window := int(windowRaw)%4 - 1 // -1: unconstrained; Build also reads 0 as that
		opts := Options{Kind: categorize.KindMaxEntropy, Categories: cats, Sparse: shape&2 == 0, Window: window, MinAnswerLen: int(shape>>2) % 4}
		if shape&1 != 0 {
			opts.Kind, opts.Categories = categorize.KindIdentity, 0
		}

		ix, err := Build(data, filepath.Join(t.TempDir(), "fz.twt"), opts)
		if err != nil {
			t.Fatalf("build: %v", err)
		}
		defer ix.Close()
		all, _, err := SeqScan(data, q, 1e18, ix.Window)
		if err != nil {
			t.Fatalf("scan: %v", err)
		}
		all = atLeast(all, ix.MinAnswerLen())
		if shape&16 != 0 && len(all) > 0 {
			eps = all[int(epsRaw)%len(all)].Distance
		}
		got, _, err := search(ix, q, eps)
		if err != nil {
			t.Fatalf("search: %v", err)
		}
		want, _, err := SeqScan(data, q, eps, ix.Window)
		if err != nil {
			t.Fatalf("scan: %v", err)
		}
		want = atLeast(want, ix.MinAnswerLen())
		if !matchesBitIdentical(got, want) {
			t.Fatalf("d=%d: index %d matches, scan %d (eps=%v %+v)", dim, len(got), len(want), eps, opts)
		}

		k := int(epsRaw)%9 + 1
		nearest, _, err := searchKNN(ix, q, k)
		if err != nil {
			t.Fatalf("knn: %v", err)
		}
		sort.SliceStable(all, func(i, j int) bool { return all[i].Distance < all[j].Distance })
		all = all[:min(k, len(all))]
		sortMatches(all)
		if !matchesEqual(nearest, all) {
			t.Fatalf("d=%d k=%d %+v: index returned %v, the scan's k best are %v", dim, k, opts, nearest, all)
		}
	})
}

// atLeast keeps the matches no shorter than minLen, in place.
func atLeast(ms []Match, minLen int) []Match {
	out := ms[:0]
	for _, m := range ms {
		if m.Ref.End-m.Ref.Start >= minLen {
			out = append(out, m)
		}
	}
	return out
}

// FuzzReadIndexRecord holds the index record codec to its bytes: any input
// gives a record or an error, never a panic; a record read re-encodes to
// exactly the bytes it was read from; and, since a record's length follows
// from its content, every truncation of one is refused. The seeds are a
// record of a category scheme and one of a grid.
func FuzzReadIndexRecord(f *testing.F) {
	scalar, err := categorize.Fit(categorize.KindMaxEntropy, []float64{1, 2, 3, 4, 5}, 3, 0)
	if err != nil {
		f.Fatal(err)
	}
	points := sequence.NewDatasetDim(2)
	if _, err := points.Add(sequence.Sequence{ID: "a", Values: []float64{0, 0, 1, 3, 2, 1, 5, 5, 3, 0, 4, 2}}); err != nil {
		f.Fatal(err)
	}
	grid, _, err := categorize.FitGrid(points, categorize.KindMaxEntropy, 2)
	if err != nil {
		f.Fatal(err)
	}
	for _, rec := range []IndexRecord{{Window: -1, Scheme: scalar}, {Window: 4, PoolPages: 64, Scheme: grid}} {
		var buf bytes.Buffer
		if err := rec.Write(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		rec, err := ReadIndexRecord(bytes.NewReader(raw))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := rec.Write(&out); err != nil {
			t.Fatalf("a record read does not write: %v", err)
		}
		if !bytes.Equal(out.Bytes(), raw) {
			t.Fatalf("a record of %d bytes re-encodes to %d other bytes", len(raw), out.Len())
		}
		for n := range len(raw) {
			if _, err := ReadIndexRecord(bytes.NewReader(raw[:n])); err == nil {
				t.Fatalf("a record cut to %d of its %d bytes was read", n, len(raw))
			}
		}
	})
}
