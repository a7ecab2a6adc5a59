package server

import (
	"context"
	"errors"
	"path/filepath"
	"reflect"
	"testing"

	"twsearch/internal/wire"
	"twsearch/seqdb"
	"twsearch/seqdb/client"
)

// newSharded partitions db's data into n shards and builds the same "fast"
// index on every shard.
func newSharded(t *testing.T, db *seqdb.DB, n int) *seqdb.ShardedDB {
	t.Helper()
	sdb, err := db.PartitionInto(filepath.Join(t.TempDir(), "sharded"), n)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sdb.Close() })
	if err := sdb.BuildIndex("fast", seqdb.IndexSpec{
		Method: seqdb.MethodMaxEntropy, Categories: 10, Sparse: true,
	}); err != nil {
		t.Fatal(err)
	}
	return sdb
}

// TestServerShardedByteIdentical is the acceptance gate at the serving
// tier: a sharded mount must answer every RPC bit-identically to the
// unsharded in-process search, at several shard counts.
func TestServerShardedByteIdentical(t *testing.T) {
	leakCheck(t)
	db := newTestDB(t)
	s := New(Config{})
	if err := s.AddDB("flat", db); err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{1, 2, 3, 5} {
		if err := s.AddSharded(names[n], newSharded(t, db, n)); err != nil {
			t.Fatal(err)
		}
	}
	addr := start(t, s)

	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ctx := context.Background()
	q := testQuery(db, "seq-03", 10, 30)
	const eps = 4.0
	want, _, err := db.SearchWith(context.Background(), "fast", q, eps, seqdb.SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("test query found no matches; pick a better query")
	}
	wantKNN, _, err := db.SearchKNNWith(context.Background(), "fast", q, 5, seqdb.SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	wantScan, _, err := db.SeqScanCtx(context.Background(), q, eps)
	if err != nil {
		t.Fatal(err)
	}

	for _, n := range []int{1, 2, 3, 5} {
		got, _, err := c.SearchWith(ctx, names[n], "fast", q, eps, seqdb.SearchOptions{})
		if err != nil {
			t.Fatalf("shards=%d: %v", n, err)
		}
		if !matchesBitIdentical(want, got) {
			t.Errorf("shards=%d: Search differs from unsharded in-process", n)
		}
		gotKNN, _, err := c.SearchKNNWith(ctx, names[n], "fast", q, 5, seqdb.SearchOptions{})
		if err != nil {
			t.Fatalf("shards=%d: %v", n, err)
		}
		if !matchesBitIdentical(wantKNN, gotKNN) {
			t.Errorf("shards=%d: SearchKNN differs from unsharded in-process", n)
		}
		gotScan, _, err := c.SeqScan(ctx, names[n], q, eps)
		if err != nil {
			t.Fatalf("shards=%d: %v", n, err)
		}
		if !matchesBitIdentical(wantScan, gotScan) {
			t.Errorf("shards=%d: SeqScan differs from unsharded in-process", n)
		}
		// Topology RPC: ranges must tile [0, Len).
		ranges, err := c.Shards(ctx, names[n])
		if err != nil {
			t.Fatalf("shards=%d: %v", n, err)
		}
		if len(ranges) != n {
			t.Errorf("shards=%d: topology reports %d ranges", n, len(ranges))
		}
		next := 0
		for _, r := range ranges {
			if r.Start != next {
				t.Errorf("shards=%d: ranges do not tile: %v", n, ranges)
				break
			}
			next = r.Start + r.Count
		}
		if next != db.Len() {
			t.Errorf("shards=%d: ranges cover %d sequences, want %d", n, next, db.Len())
		}
	}

	// The unsharded mount answers the topology RPC with one full range.
	ranges, err := c.Shards(ctx, "flat")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ranges, []seqdb.ShardRange{{Start: 0, Count: db.Len()}}) {
		t.Errorf("flat topology = %v", ranges)
	}
}

// names maps shard counts to mount names for the sharded test server.
var names = map[int]string{1: "sh1", 2: "sh2", 3: "sh3", 5: "sh5"}

// TestServerBatch exercises the v4 batch RPC end to end: mixed search and
// k-NN items in one round-trip, per-item stats, a failing item that does
// not sink the batch, and bit-identical results against both a flat and a
// sharded mount.
func TestServerBatch(t *testing.T) {
	leakCheck(t)
	db := newTestDB(t)
	s := New(Config{})
	if err := s.AddDB("flat", db); err != nil {
		t.Fatal(err)
	}
	if err := s.AddSharded("sh3", newSharded(t, db, 3)); err != nil {
		t.Fatal(err)
	}
	addr := start(t, s)

	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ctx := context.Background()
	q1 := testQuery(db, "seq-03", 10, 30)
	q2 := testQuery(db, "seq-07", 0, 25)
	queries := []client.BatchQuery{
		{Index: "fast", Eps: 4.0, Query: q1},
		{Index: "fast", K: 5, Query: q2},
		{Index: "no-such-index", Eps: 1.0, Query: q1},
		{Index: "fast", Eps: 2.0, Query: q2},
	}

	want1, _, err := db.SearchWith(context.Background(), "fast", q1, 4.0, seqdb.SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want2, _, err := db.SearchKNNWith(context.Background(), "fast", q2, 5, seqdb.SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want4, _, err := db.SearchWith(context.Background(), "fast", q2, 2.0, seqdb.SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}

	for _, mount := range []string{"flat", "sh3"} {
		results, agg, err := c.Batch(ctx, mount, queries)
		if err != nil {
			t.Fatalf("%s: %v", mount, err)
		}
		if len(results) != len(queries) {
			t.Fatalf("%s: %d results for %d queries", mount, len(results), len(queries))
		}
		if results[0].Err != nil || !matchesBitIdentical(want1, results[0].Matches) {
			t.Errorf("%s: item 0 differs from in-process (err=%v)", mount, results[0].Err)
		}
		if results[1].Err != nil || !matchesBitIdentical(want2, results[1].Matches) {
			t.Errorf("%s: item 1 (knn) differs from in-process (err=%v)", mount, results[1].Err)
		}
		if results[2].Err == nil {
			t.Errorf("%s: item 2 should fail on the unknown index", mount)
		}
		var we *wire.Error
		if !errors.As(results[2].Err, &we) {
			t.Errorf("%s: item 2 error is untyped: %v", mount, results[2].Err)
		}
		if results[3].Err != nil || !matchesBitIdentical(want4, results[3].Matches) {
			t.Errorf("%s: item 3 after a failed item differs (err=%v)", mount, results[3].Err)
		}
		if results[0].Stats.Answers != uint64(len(want1)) {
			t.Errorf("%s: item 0 stats report %d answers, want %d", mount, results[0].Stats.Answers, len(want1))
		}
		if agg.Cells() == 0 {
			t.Errorf("%s: aggregate stats empty", mount)
		}
	}

	// The connection survives a batch: a plain search on the same client.
	got, _, err := c.SearchWith(ctx, "flat", "fast", q1, 4.0, seqdb.SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !matchesBitIdentical(want1, got) {
		t.Error("post-batch search differs")
	}
}

// TestRouterThroughDaemons stands up the full serving topology: a backend
// daemon serving each shard as its own database, and a frontend daemon
// routing across them (one remote leg per shard, plus a mixed local/remote
// variant). Queries through the frontend must be bit-identical to the
// unsharded in-process answers, and the batch RPC must work end to end
// through the routing tier.
func TestRouterThroughDaemons(t *testing.T) {
	leakCheck(t)
	db := newTestDB(t)
	sdb := newSharded(t, db, 2)

	// Backend daemon: one mounted database per shard.
	backend := New(Config{})
	for i := 0; i < sdb.Shards(); i++ {
		if err := backend.AddDB(names[i+1], sdb.Shard(i)); err != nil {
			t.Fatal(err)
		}
	}
	backendAddr := start(t, backend)

	legClient1, err := client.Dial(backendAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer legClient1.Close()
	legClient2, err := client.Dial(backendAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer legClient2.Close()

	ctx := context.Background()
	// All-remote router and a mixed local/remote router: both must be
	// transparent.
	routers := map[string][]Leg{
		"remote": {
			{Remote: legClient1, RemoteDB: names[1]},
			{Remote: legClient2, RemoteDB: names[2]},
		},
		"mixed": {
			{Local: dbSource{sdb.Shard(0)}},
			{Remote: legClient2, RemoteDB: names[2]},
		},
	}
	front := New(Config{})
	for name, legs := range routers {
		r, err := NewRouter(ctx, legs)
		if err != nil {
			t.Fatal(err)
		}
		if err := front.AddSource(name, r); err != nil {
			t.Fatal(err)
		}
	}
	frontAddr := start(t, front)

	c, err := client.Dial(frontAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	q := testQuery(db, "seq-03", 10, 30)
	const eps = 4.0
	want, _, err := db.SearchWith(context.Background(), "fast", q, eps, seqdb.SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	wantKNN, _, err := db.SearchKNNWith(context.Background(), "fast", q, 5, seqdb.SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}

	for name := range routers {
		got, _, err := c.SearchWith(ctx, name, "fast", q, eps, seqdb.SearchOptions{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !matchesBitIdentical(want, got) {
			t.Errorf("%s: routed search differs from unsharded in-process", name)
		}
		gotKNN, _, err := c.SearchKNNWith(ctx, name, "fast", q, 5, seqdb.SearchOptions{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !matchesBitIdentical(wantKNN, gotKNN) {
			t.Errorf("%s: routed knn differs from unsharded in-process", name)
		}
		ranges, err := c.Shards(ctx, name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(ranges) != 2 || ranges[0].Start != 0 || ranges[1].Start != ranges[0].Count {
			t.Errorf("%s: routed topology = %v", name, ranges)
		}

		// Batch through the routing tier.
		results, _, err := c.Batch(ctx, name, []client.BatchQuery{
			{Index: "fast", Eps: eps, Query: q},
			{Index: "fast", K: 5, Query: q},
		})
		if err != nil {
			t.Fatalf("%s: batch: %v", name, err)
		}
		if results[0].Err != nil || !matchesBitIdentical(want, results[0].Matches) {
			t.Errorf("%s: routed batch search differs (err=%v)", name, results[0].Err)
		}
		if results[1].Err != nil || !matchesBitIdentical(wantKNN, results[1].Matches) {
			t.Errorf("%s: routed batch knn differs (err=%v)", name, results[1].Err)
		}
	}

	// Router stats recombine across the legs.
	st, err := c.Stats(ctx, "remote")
	if err != nil {
		t.Fatal(err)
	}
	if st.Sequences != db.Len() {
		t.Errorf("routed stats count %d sequences, want %d", st.Sequences, db.Len())
	}
	infos, err := c.ListIndexes(ctx, "remote")
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 1 || infos[0].Name != "fast" {
		t.Errorf("routed indexes = %v", infos)
	}
}

// failingSource is a Source whose searches fail with a PartialError, as a
// coordinator does when a shard dies mid-search.
type failingSource struct {
	dbSource // provides the non-search surface over a real DB
	cause    error
}

func (f failingSource) SearchVisitWith(ctx context.Context, index string, q []float64, eps float64, fn func(seqdb.Match) bool, opts seqdb.SearchOptions) (seqdb.SearchStats, error) {
	return seqdb.SearchStats{}, &seqdb.PartialError{Answered: []int{0, 2}, Failed: []int{1}, Cause: f.cause}
}

// TestPartialFailureIsTyped: a shard lost mid-search must surface to the
// client as CodeShardUnavailable carrying the shards that answered — typed,
// so callers can distinguish a partial outage from a bad request.
func TestPartialFailureIsTyped(t *testing.T) {
	leakCheck(t)
	db := newTestDB(t)
	s := New(Config{})
	cause := errors.New("shard 1 unreachable")
	if err := s.AddSource("frail", failingSource{dbSource{db}, cause}); err != nil {
		t.Fatal(err)
	}
	addr := start(t, s)

	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	_, _, err = c.SearchWith(context.Background(), "frail", "fast", []float64{1, 2, 3}, 1.0, seqdb.SearchOptions{})
	var we *wire.Error
	if !errors.As(err, &we) {
		t.Fatalf("want a typed *wire.Error, got %v", err)
	}
	if we.Code != wire.CodeShardUnavailable {
		t.Errorf("code = %v, want shard-unavailable", we.Code)
	}
	if !reflect.DeepEqual(we.Answered, []int{0, 2}) {
		t.Errorf("answered = %v, want [0 2]", we.Answered)
	}
	if !errors.Is(err, wire.ErrShardUnavailable) {
		t.Error("errors.Is must match ErrShardUnavailable")
	}
}
