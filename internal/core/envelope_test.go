package core

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"

	"twsearch/internal/categorize"
	"twsearch/internal/disktree"
	"twsearch/internal/sequence"
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
// encoding, and for ME grids over points of dimension 1 to 3 with their
// per-dimension envelope rows, the answer set is bit-identical with the
// cascade on and off, and agrees with the sequential scan. The cascade
// counters are exactly zero when disabled.
func TestEnvelopeCascadeIdentity(t *testing.T) {
	dir := t.TempDir()
	compare := func(label string, data *sequence.Dataset, opts Options, queries [][]float64, epses []float64) {
		t.Helper()
		ix, err := Build(data, filepath.Join(dir, "ix.twt"), opts)
		if err != nil {
			t.Fatalf("%s: Build: %v", label, err)
		}
		defer ix.RemoveFile()
		for _, q := range queries {
			for _, eps := range epses {
				label := fmt.Sprintf("%s eps=%v |q|=%d", label, eps, len(q))
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
				want, _, err := SeqScan(data, q, eps, opts.Window)
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
	}
	rng := rand.New(rand.NewSource(331))
	for trial := 0; trial < 3; trial++ {
		data := randomWalkDataset(rng, 3+rng.Intn(3), 25)
		queries := [][]float64{randomQuery(rng, 8), randomQuery(rng, 4)}
		for _, v := range variants() {
			for _, window := range []int{-1, 3} {
				for _, enc := range []disktree.Encoding{disktree.EncodingV1, disktree.EncodingV2} {
					opts := v.opts
					opts.Window = window
					opts.Encoding = enc
					compare(fmt.Sprintf("%s w=%d %s", v.name, window, enc), data, opts, queries, []float64{1.5, 9.5})
				}
			}
		}
	}
	rng = rand.New(rand.NewSource(443))
	for trial := 0; trial < 4; trial++ {
		dim := 1 + rng.Intn(3)
		data := randomPointDataset(rng, 4, 25, dim)
		q := randomPointQuery(rng, 8, dim)
		for _, sparse := range []bool{false, true} {
			for _, window := range []int{-1, 3} {
				opts := Options{Kind: categorize.KindMaxEntropy, Categories: 4, Sparse: sparse, Window: window}
				compare(fmt.Sprintf("trial=%d dim=%d sparse=%v w=%d", trial, dim, sparse, window), data, opts, [][]float64{q}, []float64{1.5, 8.5})
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
			Kind: categorize.KindMaxEntropy, Categories: 8, Encoding: enc,
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
