package disktree

import (
	"math/rand"
	"path/filepath"
	"testing"

	"twsearch/internal/suffixtree"
)

func benchStore(b *testing.B, nSeq, seqLen, alphabet int) *suffixtree.TextStore {
	b.Helper()
	rng := rand.New(rand.NewSource(88))
	ts := suffixtree.NewTextStore()
	for i := 0; i < nSeq; i++ {
		text := make([]Symbol, seqLen)
		for j := range text {
			text[j] = Symbol(rng.Intn(alphabet))
		}
		ts.Add(text)
	}
	return ts
}

// BenchmarkBuild times the whole construction pipeline — concurrent batch
// spill, k-way merge, rename, reopen — on 256 sequences in 16 batches, and
// reports the cost per output node and the number of merge passes.
func BenchmarkBuild(b *testing.B) {
	ts := benchStore(b, 256, 232, 12)
	seqs := allSeqs(ts)
	dir := b.TempDir()
	var stats BuildStats
	var nodes uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := Build(ts, seqs, filepath.Join(dir, "bench.twt"), BuildOptions{BatchSize: 16, PoolPages: 64, Stats: &stats})
		if err != nil {
			b.Fatal(err)
		}
		nodes = f.NumNodes()
		f.Close()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(nodes), "ns/node")
	b.ReportMetric(float64(stats.MergeRounds), "passes")
}

func BenchmarkReadNode(b *testing.B) {
	ts := benchStore(b, 16, 232, 12)
	f, err := Create(filepath.Join(b.TempDir(), "rn.twt"), suffixtree.BuildMerged(ts, allSeqs(ts), false), 256)
	if err != nil {
		b.Fatal(err)
	}
	defer f.Close()
	root, err := f.ReadNode(f.Root())
	if err != nil {
		b.Fatal(err)
	}
	var n Node
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := f.ReadNodeInto(root.Children[i%len(root.Children)].Ptr, &n); err != nil {
			b.Fatal(err)
		}
	}
}
