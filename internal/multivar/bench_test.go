package multivar_test

import (
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"testing"
	"twsearch/internal/core"
	. "twsearch/internal/multivar"

	"twsearch/internal/disktree"
)

// trajectoryWalks generates n two-dimensional random walks of points
// samples each — unit-variance steps per axis, rounded to hundredths, from
// starts spread evenly over a 100×100 field.
func trajectoryWalks(rng *rand.Rand, n, points int) *Dataset {
	d := NewDataset(2)
	for i := 0; i < n; i++ {
		_, fx := math.Modf((float64(i) + 0.5) * 0.6180339887498949)
		_, fy := math.Modf((float64(i) + 0.5) * 0.7548776662466927)
		x, y := fx*100, fy*100
		walk := make([][]float64, points)
		for j := range walk {
			x += rng.NormFloat64()
			y += rng.NormFloat64()
			walk[j] = []float64{math.Round(x*100) / 100, math.Round(y*100) / 100}
		}
		mustAdd(d, Sequence{ID: fmt.Sprintf("traj-%05d", i), Points: walk})
	}
	return d
}

// BenchmarkSearchTrajectory is shaped like the benchmark's `trajectory`
// workload: 800 walks of 200 points, a grid of 12 categories per axis,
// window 3, and range queries of about 24 points cut from the walks with
// Gaussian noise of 0.25 per coordinate, at ε 20 — the kernel's filter
// rows at dimension 2 and the verifier's point loop, over a tree in each
// record encoding, as /v1 and /v2.
func BenchmarkSearchTrajectory(b *testing.B) {
	rng := rand.New(rand.NewSource(1719))
	data := trajectoryWalks(rng, 800, 200)
	queries := make([][]float64, 40)
	for i := range queries {
		walk := points(data, rng.Intn(data.Len()))
		n := 18 + rng.Intn(13)
		start := rng.Intn(len(walk) - n + 1)
		q := make([][]float64, n)
		for j := range q {
			p := walk[start+j]
			q[j] = []float64{p[0] + rng.NormFloat64()*0.25, p[1] + rng.NormFloat64()*0.25}
		}
		queries[i] = Flatten(q)
	}
	for _, enc := range []disktree.Encoding{disktree.EncodingV1, disktree.EncodingV2} {
		b.Run(enc.String(), func(b *testing.B) {
			ix, err := build(data, filepath.Join(b.TempDir(), "traj.twt"), core.Options{Categories: 12, Window: 3, Encoding: enc})
			if err != nil {
				b.Fatal(err)
			}
			defer ix.Close()
			var nodes uint64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, st, err := ix.Search(bg, queries[i%len(queries)], 20)
				if err != nil {
					b.Fatal(err)
				}
				nodes += st.NodesVisited
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(nodes), "ns/node")
			b.ReportMetric(float64(nodes)/float64(b.N), "nodes/op")
		})
	}
}
