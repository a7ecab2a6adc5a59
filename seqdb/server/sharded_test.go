package server

import (
	"context"
	"errors"
	"os"
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
		if err := s.AddDB(names[n], sharded[n]); err != nil {
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

// TestPartialFailureIsTyped: a shard lost mid-search must surface to the
// client as CodeShardUnavailable carrying the shards that answered — typed,
// so callers can distinguish a partial outage from a bad request. The last
// of three shards has its tree cut after open, so shards 0 and 1 answer
// before its read fails.
func TestPartialFailureIsTyped(t *testing.T) {
	leakCheck(t)
	db := newTestDB(t)
	built := newSharded(t, db, 3)
	if err := built.Close(); err != nil {
		t.Fatal(err)
	}
	frail, err := seqdb.Open(built.Dir())
	if err != nil {
		t.Fatal(err)
	}
	defer frail.Close()
	tree := filepath.Join(built.Dir(), "shard-002", "idx-fast.twt")
	st, err := os.Stat(tree)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(tree, st.Size()/2/4096*4096); err != nil {
		t.Fatal(err)
	}
	s := New(Config{})
	if err := s.AddDB("frail", frail); err != nil {
		t.Fatal(err)
	}
	addr := start(t, s)

	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	_, _, err = c.SearchWith(context.Background(), "frail", "fast", testQuery(db, "seq-03", 10, 30), 4, seqdb.SearchOptions{})
	var we *wire.Error
	if !errors.As(err, &we) {
		t.Fatalf("want a typed *wire.Error, got %v", err)
	}
	if we.Code != wire.CodeShardUnavailable {
		t.Errorf("code = %v, want shard-unavailable", we.Code)
	}
	if !reflect.DeepEqual(we.Answered, []int{0, 1}) {
		t.Errorf("answered = %v, want [0 1]", we.Answered)
	}
	if !errors.Is(err, wire.ErrShardUnavailable) {
		t.Error("errors.Is must match ErrShardUnavailable")
	}
}

// TestServerBatchedStreams: answer sets that span at least three match
// frames — search, k-NN and scan, on a flat mount and on a 3-shard mount —
// arrive byte-identical to the unsharded in-process calls, batch boundaries
// and all.
func TestServerBatchedStreams(t *testing.T) {
	leakCheck(t)
	db := newTestDB(t)
	s := New(Config{})
	if err := s.AddDB("flat", db); err != nil {
		t.Fatal(err)
	}
	if err := s.AddDB("sh3", newSharded(t, db, 3)); err != nil {
		t.Fatal(err)
	}
	c, err := client.Dial(start(t, s))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ctx := context.Background()
	q := testQuery(db, "seq-03", 10, 30)
	const eps = 20.0
	want, _, err := db.SearchWith(ctx, "fast", q, eps, seqdb.SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	k := len(want) - 7
	wantKNN, _, err := db.SearchKNNWith(ctx, "fast", q, k, seqdb.SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	wantScan, _, err := db.SeqScanCtx(ctx, q, eps)
	if err != nil {
		t.Fatal(err)
	}
	// A batch is sent once its records reach 32 KiB, so a stream of more
	// than 96 KiB of records takes at least three frames.
	for name, ms := range map[string][]seqdb.Match{"search": want, "k-NN": wantKNN, "scan": wantScan} {
		size := 0
		for _, m := range ms {
			size += len((&wire.Match{SeqID: m.SeqID}).Encode(nil))
		}
		if size <= 3*32<<10 {
			t.Fatalf("%s: %d answers in %d bytes of records, not three batches: pick a broader query", name, len(ms), size)
		}
	}

	for _, mount := range []string{"flat", "sh3"} {
		got, _, err := c.SearchWith(ctx, mount, "fast", q, eps, seqdb.SearchOptions{})
		if err != nil || !matchesBitIdentical(want, got) {
			t.Errorf("%s: search: %d answers, %v; want %d bit-identical", mount, len(got), err, len(want))
		}
		gotKNN, _, err := c.SearchKNNWith(ctx, mount, "fast", q, k, seqdb.SearchOptions{})
		if err != nil || !matchesBitIdentical(wantKNN, gotKNN) {
			t.Errorf("%s: k-NN: %d answers, %v; want %d bit-identical", mount, len(gotKNN), err, len(wantKNN))
		}
		gotScan, _, err := c.SeqScan(ctx, mount, q, eps)
		if err != nil || !matchesBitIdentical(wantScan, gotScan) {
			t.Errorf("%s: scan: %d answers, %v; want %d bit-identical", mount, len(gotScan), err, len(wantScan))
		}
	}
}

// TestServerListIndexesMatchesIndex: what a client lists of an index is
// what Index reports of it in process, field for field — a v1 index, a v2
// index and one read through a 64-page pool, flat and on a 2-shard mount.
func TestServerListIndexesMatchesIndex(t *testing.T) {
	leakCheck(t)
	db := newTestDB(t)
	dbs := map[string]*seqdb.DB{"flat": db, "sharded": newSharded(t, db, 2)}
	s := New(Config{})
	for mount, d := range dbs {
		for name, spec := range map[string]seqdb.IndexSpec{
			"v2":     {Method: seqdb.MethodMaxEntropy, Categories: 10, Encoding: seqdb.EncodingV2},
			"pooled": {Method: seqdb.MethodKMeans, Categories: 6, Window: 3, PoolPages: 64},
		} {
			if err := d.BuildIndex(name, spec); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.AddDB(mount, d); err != nil {
			t.Fatal(err)
		}
	}
	c, err := client.Dial(start(t, s))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for mount, d := range dbs {
		infos, err := c.ListIndexes(context.Background(), mount)
		if err != nil {
			t.Fatal(err)
		}
		if len(infos) != 3 {
			t.Fatalf("%s: listed %d indexes, want 3", mount, len(infos))
		}
		for _, got := range infos {
			want, err := d.Index(got.Name)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s: listed %+v, Index reports %+v", mount, got, want)
			}
		}
		if info, _ := d.Index("fast"); info.Spec.Encoding != seqdb.EncodingV1 {
			t.Errorf("%s: fast is %s, want v1", mount, info.Spec.Encoding)
		}
		if info, _ := d.Index("pooled"); info.Spec.PoolPages != 64 {
			t.Errorf("%s: pooled has %d pool pages, want 64", mount, info.Spec.PoolPages)
		}
	}
}
