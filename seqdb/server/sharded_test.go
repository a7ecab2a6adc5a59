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
	sharded := map[int]*seqdb.ShardedDB{}
	for _, n := range []int{1, 2, 3, 5} {
		sharded[n] = newSharded(t, db, n)
		if err := s.AddSharded(names[n], sharded[n]); err != nil {
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
	}

	// A sharded mount's pool counters cross the wire as the in-process
	// ones: after the searches above, "fast" reports the pool stripes of
	// all 3 shards and has been read.
	_, pools, err := c.StatsPools(ctx, names[3])
	if err != nil {
		t.Fatal(err)
	}
	stripes := len(sharded[3].Shard(0).PoolStats()[0].Shards)
	if len(pools) != 1 || pools[0].Index != "fast" || len(pools[0].Shards) != 3*stripes ||
		!reflect.DeepEqual(pools, sharded[3].PoolStats()) {
		t.Fatalf("sh3 pool stats = %+v, want the in-process ones: index \"fast\", 3×%d stripes", pools, stripes)
	}
	var reads uint64
	for _, sh := range pools[0].Shards {
		reads += sh.Hits + sh.Misses
	}
	if reads == 0 {
		t.Error("sh3 pool stats count no hits or misses after a search")
	}
}

// names maps shard counts to mount names for the sharded test server.
var names = map[int]string{1: "sh1", 2: "sh2", 3: "sh3", 5: "sh5"}

// failingSource is a source whose searches fail with a PartialError, as a
// coordinator does when a shard dies mid-search.
type failingSource struct {
	*seqdb.DB // provides the non-search surface over a real DB
	cause     error
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
	if err := s.addSource("frail", failingSource{db, cause}); err != nil {
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
