package multivar

import (
	"path/filepath"
	"testing"

	"twsearch/internal/categorize"
)

// FuzzVectorSearchMatchesScan is core.FuzzSearchMatchesScan for the vector
// kernel: a tiny 2-D database and query cut from fuzz bytes, a sparse grid
// index (with and without a warping window) against the sequential scan.
// Coordinates are small integers, so distances are exact sums and the
// answers must agree bit for bit.
func FuzzVectorSearchMatchesScan(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 1, 2, 3, 4, 5, 6, 7, 8}, []byte{2, 3, 4, 5}, uint8(10), uint8(3), uint8(0))
	f.Add([]byte{9, 9, 9, 9, 9, 9, 9, 9, 9, 1, 9, 9}, []byte{9, 9, 9, 9}, uint8(2), uint8(1), uint8(2))
	f.Fuzz(func(t *testing.T, seqBytes, qBytes []byte, epsRaw, catsRaw, windowRaw uint8) {
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
			data.MustAdd(Sequence{ID: string(rune('a' + i)), Points: points(chunk)})
		}
		q := points(qBytes)
		eps := float64(epsRaw%40) + 0.5
		cats := int(catsRaw)%6 + 1
		window := int(windowRaw)%4 - 1 // -1: unconstrained; Build also reads 0 as that

		ix, err := Build(data, filepath.Join(t.TempDir(), "fz.twt"), Options{
			Kind: categorize.KindMaxEntropy, CatsPerDim: cats, Sparse: true, Window: window,
		})
		if err != nil {
			t.Fatalf("build: %v", err)
		}
		defer ix.Close()
		got, _, err := ix.SearchOpts(bg, q, eps, SearchOptions{})
		if err != nil {
			t.Fatalf("search: %v", err)
		}
		want, _, err := SeqScan(data, q, eps, ix.Window)
		if err != nil {
			t.Fatalf("scan: %v", err)
		}
		if !mMatchesBitIdentical(got, want) {
			t.Fatalf("index %d matches, scan %d (eps=%v cats=%d window=%d)", len(got), len(want), eps, cats, ix.Window)
		}
	})
}
