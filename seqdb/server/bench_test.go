package server

import (
	"context"
	"math"
	"math/rand"
	"net"
	"runtime"
	"testing"

	"twsearch/internal/workload"
	"twsearch/seqdb"
	"twsearch/seqdb/client"
)

// BenchmarkServeSearchBroad is a range search served end to end over
// loopback, shaped like the benchmark's `broad` workload: the stock walks of
// internal/core's BenchmarkSearchBroad behind a sparse 20-category index,
// 20-value queries cut from the data at eps 9, thousands of answers each,
// run through client.SearchWith against a server in the same process. It
// reports, beside ns/op, the cost per answer in time and in allocations —
// server and client together — so the engine, the match stream and the
// client's decode show up in one profile (`make profile-serve`).
func BenchmarkServeSearchBroad(b *testing.B) {
	data := workload.Stocks(workload.StockConfig{NumSequences: 273, Seed: 1717})
	db, err := seqdb.Create(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	for i := 0; i < data.Len(); i++ {
		s := data.Seq(i)
		if err := db.Add(s.ID, s.Values); err != nil {
			b.Fatal(err)
		}
	}
	if err := db.BuildIndex("broad", seqdb.IndexSpec{Method: seqdb.MethodMaxEntropy, Categories: 20, Sparse: true}); err != nil {
		b.Fatal(err)
	}
	srv := New(Config{})
	if err := srv.AddDB("main", db); err != nil {
		b.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	defer func() {
		srv.Shutdown(context.Background())
		<-served
	}()
	c, err := client.Dial(ln.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()

	rng := rand.New(rand.NewSource(1718))
	queries := make([][]float64, 40)
	for i := range queries {
		_, frac := math.Modf((float64(i) + 0.5) * 0.6180339887498949)
		vals := data.Values(int(frac * float64(data.Len())))
		n := min(15+rng.Intn(11), len(vals))
		start := rng.Intn(len(vals) - n + 1)
		queries[i] = vals[start : start+n]
	}
	ctx := context.Background()
	var answers int
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ms, _, err := c.SearchWith(ctx, "main", "broad", queries[i%len(queries)], 9, seqdb.SearchOptions{})
		if err != nil {
			b.Fatal(err)
		}
		answers += len(ms)
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(answers), "ns/answer")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(answers), "allocs/answer")
	b.ReportMetric(float64(answers)/float64(b.N), "answers/op")
}
