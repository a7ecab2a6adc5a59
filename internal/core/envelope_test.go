package core

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"

	"twsearch/internal/categorize"
	"twsearch/internal/disktree"
)

// matchesIdentical is matchesEqual with no tolerance: the envelope row gate
// only skips work, it never reroutes a surviving candidate through different
// arithmetic, so answers must be bit-identical with the gate on and off.
func matchesIdentical(a, b []Match) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestEnvelopeCascadeIdentity: for every index variant, window, and tree
// encoding, the answer set is bit-identical with the cascade on and off,
// and agrees with the sequential scan. The cascade counters are exactly
// zero when disabled.
func TestEnvelopeCascadeIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(331))
	dir := t.TempDir()
	for trial := 0; trial < 3; trial++ {
		data := randomWalkDataset(rng, 3+rng.Intn(3), 25)
		queries := [][]float64{randomQuery(rng, 8), randomQuery(rng, 4)}
		for vi, v := range variants() {
			for _, window := range []int{-1, 3} {
				for _, enc := range []disktree.Encoding{disktree.EncodingV1, disktree.EncodingV2} {
					opts := v.opts
					opts.Window = window
					opts.Build.Encoding = enc
					path := filepath.Join(dir, fmt.Sprintf("ix-%d-%d-%d-%s.twt", trial, vi, window, enc))
					ix, err := Build(data, path, opts)
					if err != nil {
						t.Fatalf("%s w=%d %s: Build: %v", v.name, window, enc, err)
					}
					for _, q := range queries {
						for _, eps := range []float64{1.5, 9.5} {
							label := fmt.Sprintf("%s w=%d %s eps=%v |q|=%d", v.name, window, enc, eps, len(q))

							on, onStats, err := search(ix, q, eps)
							if err != nil {
								t.Fatalf("%s: Search: %v", label, err)
							}
							ix.DisableEnvelopes = true
							off, offStats, err := search(ix, q, eps)
							ix.DisableEnvelopes = false
							if err != nil {
								t.Fatalf("%s: Search (cascade off): %v", label, err)
							}

							if !matchesIdentical(on, off) {
								t.Fatalf("%s: cascade changed answers: %d on, %d off", label, len(on), len(off))
							}
							want, _, err := SeqScan(data, q, eps, window)
							if err != nil {
								t.Fatal(err)
							}
							if !matchesEqual(on, want) {
								t.Fatalf("%s: index %d matches, seqscan %d", label, len(on), len(want))
							}

							if offStats.EnvelopePruned != 0 || offStats.LBCells != 0 {
								t.Errorf("%s: disabled cascade counted work: pruned=%d lbcells=%d",
									label, offStats.EnvelopePruned, offStats.LBCells)
							}
							if onStats.FilterCells > offStats.FilterCells {
								t.Errorf("%s: cascade increased filter work: %d > %d",
									label, onStats.FilterCells, offStats.FilterCells)
							}
						}
					}
					if err := ix.RemoveFile(); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
	}
}

// TestEnvelopeCascadeReducesWork: on a selective query the row gate must
// actually fire and cut filter cells.
func TestEnvelopeCascadeReducesWork(t *testing.T) {
	rng := rand.New(rand.NewSource(337))
	data := randomWalkDataset(rng, 12, 60)
	q := randomQuery(rng, 10)
	// A tight threshold makes the traversal prune-bound: exactly where the
	// cascade should win.
	const eps = 2.5
	dir := t.TempDir()
	for _, enc := range []disktree.Encoding{disktree.EncodingV1, disktree.EncodingV2} {
		ix, err := Build(data, filepath.Join(dir, "ix-"+enc.String()+".twt"), Options{
			Kind: categorize.KindMaxEntropy, Categories: 8, Build: disktree.BuildOptions{Encoding: enc},
		})
		if err != nil {
			t.Fatal(err)
		}
		_, on, err := search(ix, q, eps)
		if err != nil {
			t.Fatal(err)
		}
		ix.DisableEnvelopes = true
		_, off, err := search(ix, q, eps)
		if err != nil {
			t.Fatal(err)
		}
		if on.EnvelopePruned == 0 {
			t.Errorf("%s: cascade never fired", enc)
		}
		if on.FilterCells >= off.FilterCells {
			t.Errorf("%s: cascade did not cut filter cells: %d vs %d", enc, on.FilterCells, off.FilterCells)
		}
		if err := ix.RemoveFile(); err != nil {
			t.Fatal(err)
		}
	}
}
