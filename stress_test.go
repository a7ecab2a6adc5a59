package twsearch_test

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"testing"

	"twsearch/internal/categorize"
	"twsearch/internal/core"
	"twsearch/internal/sequence"
)

// TestStressFeatureMatrix sweeps the full cross product of index features —
// categorization method × sparsity × warping window × answer length floor
// — against the correspondingly-constrained sequential scan.
// It is the widest single statement of the no-false-dismissal guarantee in
// the repository.
func TestStressFeatureMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("feature matrix is slow")
	}
	rng := rand.New(rand.NewSource(911))
	dir := t.TempDir()

	data := sequence.NewDataset()
	for i := 0; i < 6; i++ {
		n := 10 + rng.Intn(30)
		vals := make([]float64, n)
		v := float64(rng.Intn(30))
		for j := range vals {
			v += float64(rng.Intn(5) - 2)
			vals[j] = v
		}
		data.MustAdd(sequence.Sequence{ID: fmt.Sprintf("s%d", i), Values: vals})
	}
	queries := [][]float64{}
	for i := 0; i < 3; i++ {
		n := 3 + rng.Intn(6)
		q := make([]float64, n)
		v := float64(rng.Intn(30))
		for j := range q {
			v += float64(rng.Intn(5) - 2)
			q[j] = v
		}
		queries = append(queries, q)
	}

	idx := 0
	for _, kind := range []categorize.Kind{categorize.KindIdentity, categorize.KindEqualLength, categorize.KindMaxEntropy} {
		for _, sparse := range []bool{false, true} {
			for _, window := range []int{-1, 4} {
				for _, minLen := range []int{0, 4} {
					idx++
					name := fmt.Sprintf("%s/sparse=%v/w=%d/min=%d", kind, sparse, window, minLen)
					opts := core.Options{
						Kind:         kind,
						Categories:   6,
						Sparse:       sparse,
						Window:       window,
						MinAnswerLen: minLen,
					}
					ix, err := core.Build(data, filepath.Join(dir, fmt.Sprintf("m%d.twt", idx)), opts)
					if err != nil {
						t.Fatalf("%s: build: %v", name, err)
					}
					for qi, q := range queries {
						for _, eps := range []float64{1.5, 9.5} {
							got, _, err := ix.Search(context.Background(), q, eps)
							if err != nil {
								t.Fatalf("%s: search: %v", name, err)
							}
							all, _, err := core.SeqScan(data, q, eps, window)
							if err != nil {
								t.Fatal(err)
							}
							var want []core.Match
							for _, m := range all {
								if minLen == 0 || m.Ref.Len() >= minLen {
									want = append(want, m)
								}
							}
							if len(got) != len(want) {
								t.Fatalf("%s q%d eps=%v: index %d, scan %d", name, qi, eps, len(got), len(want))
							}
							for i := range got {
								if got[i].Ref != want[i].Ref || math.Abs(got[i].Distance-want[i].Distance) > 1e-9 {
									t.Fatalf("%s q%d eps=%v: match %d differs", name, qi, eps, i)
								}
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
	t.Logf("verified %d feature combinations", idx)
}
