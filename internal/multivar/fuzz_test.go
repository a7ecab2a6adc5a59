package multivar_test

import (
	"bytes"
	"encoding/binary"
	"path/filepath"
	"reflect"
	"testing"
	"twsearch/internal/core"
	. "twsearch/internal/multivar"
	"twsearch/internal/sequence"

	"twsearch/internal/categorize"
)

// FuzzVectorSearchMatchesScan is core.FuzzSearchMatchesScan for the vector
// kernel: a tiny 2-D database and query cut from fuzz bytes, a grid index —
// sparse with and without a warping window, or dense, or per-dimension
// identity, optionally with an answer-length floor — against the sequential
// scan, down to eps = 0 where only exact hits stay live in the verification
// rows. A grid filter is never exact, so every reached leaf is verified.
// Coordinates are small integers, so distances are exact sums and the
// answers must agree bit for bit. shape picks the index: bit 0 identity
// categories, bit 1 a dense tree, bits 2-3 the answer-length floor; bit 4
// sets eps to the exact distance of one scan answer (epsRaw picks which), a
// tie that every pruning and candidate test must keep.
func FuzzVectorSearchMatchesScan(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 1, 2, 3, 4, 5, 6, 7, 8}, []byte{2, 3, 4, 5}, uint8(10), uint8(3), uint8(0), uint8(0))
	f.Add([]byte{9, 9, 9, 9, 9, 9, 9, 9, 9, 1, 9, 9}, []byte{9, 9, 9, 9}, uint8(2), uint8(1), uint8(2), uint8(0))
	f.Add([]byte{4, 4, 4, 4, 4, 4, 9, 2, 9, 2, 4, 4, 4, 4, 4, 4, 9, 2, 9, 2, 9, 2}, []byte{4, 4, 4, 4, 9, 2}, uint8(250), uint8(2), uint8(0), uint8(0))
	f.Add([]byte{1, 1, 1, 1, 1, 1, 5, 5, 5, 5, 1, 1, 1, 1, 1, 1, 5, 5, 5, 6}, []byte{1, 1, 5, 5, 5, 5}, uint8(244), uint8(1), uint8(3), uint8(0))
	// Leading runs far longer than |Q|.
	f.Add([]byte{3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 7, 7, 7, 7, 7, 7, 7, 7, 3, 3, 3, 3, 3, 3, 3, 3}, []byte{3, 3, 7, 7}, uint8(4), uint8(1), uint8(0), uint8(0))
	// An answer-length floor of 3, over runs.
	f.Add([]byte{2, 2, 2, 2, 2, 2, 6, 6, 6, 6, 2, 2, 2, 2, 2, 2, 6, 6, 6, 6}, []byte{2, 2, 6, 6, 6, 6}, uint8(5), uint8(1), uint8(0), uint8(3<<2))
	// Sparse under a window, runs longer than |Q| + w.
	f.Add([]byte{5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 1, 1, 1, 1, 1, 1, 1, 1, 5, 5, 5, 5}, []byte{5, 5, 1, 1}, uint8(3), uint8(1), uint8(2), uint8(0))
	// Identity cells, dense.
	f.Add([]byte{1, 2, 2, 3, 3, 2, 2, 1, 1, 2, 2, 3, 3, 4, 4, 3}, []byte{2, 3, 3, 2}, uint8(2), uint8(0), uint8(0), uint8(3))
	// eps at an answer's exact distance, over long runs: sparse identity
	// cells and a sparse ME grid.
	f.Add([]byte{2, 0, 2, 0, 2, 0, 2, 0, 2, 0, 2, 0, 2, 0, 0, 2, 0, 2, 0, 2, 0, 2, 0, 2, 0, 2, 1, 0, 1, 0, 0, 2, 0, 2, 0, 2, 1, 2, 1, 2, 1, 2, 1, 2, 2, 1, 2, 1, 2, 1, 2, 1, 2, 1, 2, 1, 2, 1, 0, 0, 0, 0, 0, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 0, 2, 0, 2, 0, 2, 0, 2, 0, 2, 0, 2, 1, 0, 1, 0}, []byte{0, 2, 0, 2}, uint8(156), uint8(0), uint8(0), uint8(1|16))
	f.Add([]byte{2, 1, 2, 1, 2, 1, 2, 1, 2, 1, 2, 1, 2, 1, 2, 0, 2, 0, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 1, 2, 1, 2, 1, 2, 1, 2, 1, 2, 1, 2, 1, 2, 0, 2, 0, 2, 0, 2, 0, 0, 2, 0, 2, 0, 2, 0, 2, 0, 2, 0, 2, 0, 2, 2, 0, 2, 0, 2, 0, 1, 0, 1, 0, 1, 0}, []byte{2, 2, 2, 2}, uint8(149), uint8(1), uint8(0), uint8(16))
	f.Fuzz(func(t *testing.T, seqBytes, qBytes []byte, epsRaw, catsRaw, windowRaw, shape uint8) {
		if len(seqBytes) < 8 || len(qBytes) < 2 {
			return
		}
		if len(seqBytes) > 96 {
			seqBytes = seqBytes[:96]
		}
		if len(qBytes) > 16 {
			qBytes = qBytes[:16]
		}
		points := func(b []byte) [][]float64 {
			out := make([][]float64, len(b)/2)
			for j := range out {
				out[j] = []float64{float64(int(b[2*j]) % 32), float64(int(b[2*j+1]) % 32)}
			}
			return out
		}
		// Two sequences cut from the byte stream.
		data := NewDataset(2)
		half := len(seqBytes) / 4 * 2
		for i, chunk := range [][]byte{seqBytes[:half], seqBytes[half:]} {
			mustAdd(data, Sequence{ID: string(rune('a' + i)), Points: points(chunk)})
		}
		q := points(qBytes)
		eps := float64(epsRaw%40) + 0.5
		if epsRaw >= 240 {
			eps = 0
		}
		cats := int(catsRaw)%6 + 1
		window := int(windowRaw)%4 - 1 // -1: unconstrained; Build also reads 0 as that
		opts := core.Options{Kind: categorize.KindMaxEntropy, Categories: cats, Sparse: shape&2 == 0, Window: window, MinAnswerLen: int(shape>>2) % 4}
		if shape&1 != 0 {
			opts.Kind = categorize.KindIdentity
		}

		ix, err := build(data, filepath.Join(t.TempDir(), "fz.twt"), opts)
		if err != nil {
			t.Fatalf("build: %v", err)
		}
		defer ix.Close()
		if shape&16 != 0 {
			every, _, err := SeqScan(data, q, 1e18, ix.Window)
			if err != nil {
				t.Fatalf("scan: %v", err)
			}
			if len(every) > 0 {
				eps = every[int(epsRaw)%len(every)].Distance
			}
		}
		got, _, err := ix.Search(bg, Flatten(q), eps)
		if err != nil {
			t.Fatalf("search: %v", err)
		}
		all, _, err := SeqScan(data, q, eps, ix.Window)
		if err != nil {
			t.Fatalf("scan: %v", err)
		}
		var want []Match
		for _, m := range all {
			if m.Ref.End-m.Ref.Start >= ix.MinAnswerLen() {
				want = append(want, m)
			}
		}
		if !mMatchesBitIdentical(got, want) {
			t.Fatalf("index %d matches, scan %d (eps=%v %+v)", len(got), len(want), eps, opts)
		}
	})
}

// FuzzReadBinary must never panic — or allocate what a lying length asks
// for — on arbitrary bytes, and anything it accepts must re-serialize to an
// equal dataset.
func FuzzReadBinary(f *testing.F) {
	good := NewDataset(2)
	mustAdd(good, Sequence{ID: "seed", Points: [][]float64{{1, 2.5}, {-3, 4}}})
	var buf bytes.Buffer
	if err := good.WriteBinary(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	// 46 bytes that declare 0xFF7F0003 points: 34 GB to a reader that sizes
	// its storage from the stream.
	huge := append([]byte(nil), buf.Bytes()[:8+2+4+2+len("seed")]...)
	huge = binary.LittleEndian.AppendUint32(huge, 0xFF7F0003)
	f.Add(append(huge, make([]byte, 46-len(huge))...))
	f.Add([]byte("TWVECDB1"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := sequence.ReadBinary(bytes.NewReader(data))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := d.WriteBinary(&out); err != nil {
			t.Fatalf("accepted dataset failed to serialize: %v", err)
		}
		d2, err := sequence.ReadBinary(&out)
		if err != nil {
			t.Fatalf("round trip of accepted dataset failed: %v", err)
		}
		if d2.Dim() != d.Dim() || d2.Len() != d.Len() {
			t.Fatalf("round trip changed the shape: %d×%d vs %d×%d", d2.Len(), d2.Dim(), d.Len(), d.Dim())
		}
		for i := 0; i < d.Len(); i++ {
			if d2.Seq(i).ID != d.Seq(i).ID || !reflect.DeepEqual(points(d2, i), points(d, i)) {
				t.Fatalf("round trip changed sequence %d", i)
			}
		}
	})
}
