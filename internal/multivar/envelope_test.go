package multivar_test

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"
	"twsearch/internal/core"
	. "twsearch/internal/multivar"

	"twsearch/internal/categorize"
)

// TestMultivarEnvelopeCascade: the per-dimension envelope row tier changes
// only the work done — answers are identical with the cascade on and off,
// and the counters are zero when disabled.
func TestMultivarEnvelopeCascade(t *testing.T) {
	rng := rand.New(rand.NewSource(443))
	dir := t.TempDir()
	for trial := 0; trial < 4; trial++ {
		dim := 1 + rng.Intn(3)
		data := randomVecDataset(rng, 4, 25, dim)
		q := randomVecQuery(rng, 8, dim)
		for _, sparse := range []bool{false, true} {
			for _, window := range []int{-1, 3} {
				path := filepath.Join(dir, fmt.Sprintf("ix-%d-%v-%d.twt", trial, sparse, window))
				ix, err := build(data, path, core.Options{
					Kind: categorize.KindMaxEntropy, Categories: 4,
					Sparse: sparse, Window: window,
				})
				if err != nil {
					t.Fatal(err)
				}
				for _, eps := range []float64{1.5, 8.5} {
					label := fmt.Sprintf("trial=%d dim=%d sparse=%v w=%d eps=%v", trial, dim, sparse, window, eps)
					on, onStats, err := ix.Search(bg, Flatten(q), eps)
					if err != nil {
						t.Fatal(err)
					}
					ix.DisableEnvelopes = true
					off, offStats, err := ix.Search(bg, Flatten(q), eps)
					ix.DisableEnvelopes = false
					if err != nil {
						t.Fatal(err)
					}
					if len(on) != len(off) {
						t.Fatalf("%s: answer counts diverge: on=%d off=%d", label, len(on), len(off))
					}
					for i := range on {
						if on[i] != off[i] {
							t.Fatalf("%s: answer %d diverges: %+v / %+v", label, i, on[i], off[i])
						}
					}
					if offStats.EnvelopePruned != 0 || offStats.LBCells != 0 {
						t.Errorf("%s: disabled cascade counted work", label)
					}
					if onStats.FilterCells > offStats.FilterCells {
						t.Errorf("%s: cascade increased filter work: %d > %d", label, onStats.FilterCells, offStats.FilterCells)
					}
					// Ground truth: the window-matched sequential scan.
					want, _, err := SeqScan(data, q, eps, window)
					if err != nil {
						t.Fatal(err)
					}
					if len(on) != len(want) {
						t.Fatalf("%s: index %d matches, seqscan %d", label, len(on), len(want))
					}
				}
				ix.Close()
			}
		}
	}
}
