package disktree

import (
	"math/rand"
	"path/filepath"
	"testing"
	"time"

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

// BenchmarkBuild times the whole construction — suffix sort, streamed write,
// rename, reopen — in each record encoding, as /v1 and /v2, and reports the
// cost per output node on a random input and on a repetitive one (constant
// runs, where the suffixes' common prefixes are as long as the runs and a
// string sort is at its worst), for the whole and for its two spans: until
// the last bucket is sorted, and from the first record to the sync. The
// spans overlap where there are CPUs to overlap them on, so they add up to
// more than the whole.
func BenchmarkBuild(b *testing.B) {
	runs := suffixtree.NewTextStore()
	for i := 0; i < 256; i++ {
		text := make([]Symbol, 232)
		for j := range text {
			text[j] = Symbol((j / 58) % 3)
		}
		runs.Add(text)
	}
	inputs := []struct {
		name string
		ts   *suffixtree.TextStore
	}{{"random", benchStore(b, 256, 232, 12)}, {"runs", runs}}
	for _, enc := range []Encoding{EncodingV1, EncodingV2} {
		for _, in := range inputs {
			b.Run(enc.String()+"/"+in.name, func(b *testing.B) {
				seqs := allSeqs(in.ts)
				dir := b.TempDir()
				var stats BuildStats
				var sorting, writing time.Duration
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					var err error
					if stats, err = Build(in.ts, seqs, filepath.Join(dir, "bench.twt"), BuildOptions{Encoding: enc}); err != nil {
						b.Fatal(err)
					}
					sorting += stats.SortElapsed
					writing += stats.WriteElapsed
				}
				perNode := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / float64(b.N) / float64(stats.Nodes) }
				b.ReportMetric(perNode(b.Elapsed()), "ns/node")
				b.ReportMetric(perNode(sorting), "sort-ns/node")
				b.ReportMetric(perNode(writing), "write-ns/node")
			})
		}
	}
}

// BenchmarkReadNode decodes every node of a tree in depth-first order — the
// order a search reads them in, sibling records sharing pages — through one
// Reader, the page-run path searches use, in each record encoding.
func BenchmarkReadNode(b *testing.B) {
	ts := benchStore(b, 16, 232, 12)
	for _, enc := range []Encoding{EncodingV1, EncodingV2} {
		b.Run(enc.String(), func(b *testing.B) {
			f, _, err := buildOpen(ts, allSeqs(ts), filepath.Join(b.TempDir(), "rn.twt"), 256, BuildOptions{Encoding: enc})
			if err != nil {
				b.Fatal(err)
			}
			defer f.Close()
			var ptrs []Ptr
			var walk func(p Ptr)
			walk = func(p Ptr) {
				n, err := f.ReadNode(p)
				if err != nil {
					b.Fatal(err)
				}
				ptrs = append(ptrs, p)
				for _, c := range n.Children {
					walk(c.Ptr)
				}
			}
			walk(f.Root())
			var rd Reader
			rd.Reset(f)
			defer rd.Close()
			var n Node
			b.ResetTimer()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := rd.ReadNodeInto(ptrs[i%len(ptrs)], &n); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
