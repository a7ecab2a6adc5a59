package seqdb

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"
)

// unlocked fails the test if any part of db is still locked, shared or
// exclusively, after op returned, and releases the lock the call kept so
// the calls after it run.
func unlocked(t *testing.T, db *DB, op string) {
	t.Helper()
	for i, p := range db.parts {
		if p.mu.TryLock() {
			p.mu.Unlock()
			continue
		}
		t.Errorf("%s: part %d is still locked after the call returned", op, i)
		if p.mu.TryRLock() { // the call kept a read lock
			p.mu.RUnlock()
			p.mu.RUnlock()
		} else {
			p.mu.Unlock()
		}
	}
}

// parkedIn waits until some goroutine is asleep on a lock inside the
// function fn (a stack frame name such as "seqdb.(*DB).Len"), and fails
// the test if none is within ten seconds.
func parkedIn(t *testing.T, fn string) {
	t.Helper()
	frame := fn + "("
	buf := make([]byte, 1<<20)
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
			if strings.Contains(g, frame) && strings.Contains(g, "sync.runtime_Semacquire") {
				return
			}
		}
	}
	t.Fatalf("no goroutine asleep on a lock in %s", fn)
}

// failingWriter fails every write.
type failingWriter struct{}

func (failingWriter) Write([]byte) (int, error) { return 0, errors.New("write refused") }

// TestCallsReleaseLocks: every DB method, driven to its returns — its
// error returns above all: a missing index, an unknown id, a refusal, a
// failed write — leaves every part unlocked, on a flat database and on a
// 2-shard root. A lock kept on one of them would deadlock the next
// BuildIndex or Close, so those must then finish within a time bound.
func TestCallsReleaseLocks(t *testing.T) {
	flat := newTestDB(t, 6, 60, 41)
	spec := IndexSpec{Categories: 8, Sparse: true}
	if err := flat.BuildIndex("ix", spec); err != nil {
		t.Fatal(err)
	}
	root, err := flat.PartitionInto(filepath.Join(t.TempDir(), "root"), 2)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { root.Close() })
	if err := root.BuildIndex("ix", spec); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	for _, db := range []*DB{flat, root} {
		q := append([]float64(nil), db.Values("seq-1")[5:15]...)
		calls := []struct {
			op   string
			call func()
		}{
			{"SearchWith", func() { db.SearchWith(ctx, "ix", q, 3, SearchOptions{}) }},
			{"SearchWith of a missing index", func() { db.SearchWith(ctx, "missing", q, 3, SearchOptions{}) }},
			{"SearchWith cancelled", func() { db.SearchWith(cancelled, "ix", q, 3, SearchOptions{}) }},
			{"SearchVisitWith of a missing index", func() {
				db.SearchVisitWith(ctx, "missing", q, 3, func(Match) bool { return true }, SearchOptions{})
			}},
			{"SearchVisitWith stopped", func() {
				db.SearchVisitWith(ctx, "ix", q, 1e9, func(Match) bool { return false }, SearchOptions{})
			}},
			{"SearchKNNWith", func() { db.SearchKNNWith(ctx, "ix", q, 2, SearchOptions{}) }},
			{"SearchKNNWith of a missing index", func() { db.SearchKNNWith(ctx, "missing", q, 2, SearchOptions{}) }},
			{"SeqScanCtx", func() { db.SeqScanCtx(ctx, q, 3) }},
			{"SeqScanCtx cancelled", func() { db.SeqScanCtx(cancelled, q, 3) }},
			{"Index", func() { db.Index("ix") }},
			{"Index of a missing index", func() { db.Index("missing") }},
			{"Indexes", func() { db.Indexes() }},
			{"Values", func() { db.Values("seq-5") }},
			{"Values of an unknown id", func() { db.Values("nope") }},
			{"Align", func() { db.Align(Match{SeqID: "seq-1", Start: 5, End: 15}, q) }},
			{"Align of an unknown id", func() { db.Align(Match{SeqID: "nope", End: 1}, q) }},
			{"Align out of bounds", func() { db.Align(Match{SeqID: "seq-1", End: 1 << 20}, q) }},
			{"SelectCategories", func() {
				db.SelectCategories(spec, []int{4}, [][]float64{q}, 3, CostModel{Wt: 1, Ws: 1})
			}},
			{"SelectCategories with no counts", func() {
				db.SelectCategories(spec, nil, [][]float64{q}, 3, CostModel{Wt: 1, Ws: 1})
			}},
			{"ExportCSV", func() { db.ExportCSV(io.Discard) }},
			{"ExportCSV to a failing writer", func() { db.ExportCSV(failingWriter{}) }},
			{"ImportCSV while indexes exist", func() { db.ImportCSV(strings.NewReader("x,1,2\n")) }},
			{"Add while indexes exist", func() { db.Add("x", []float64{1, 2}) }},
			{"BuildIndex of an existing name", func() { db.BuildIndex("ix", spec) }},
			{"BuildIndex of an unknown encoding", func() { db.BuildIndex("enc", IndexSpec{Encoding: 9}) }},
			{"DropIndex of a missing index", func() { db.DropIndex("missing") }},
			{"Save", func() { db.Save() }},
			{"Len", func() { db.Len() }},
			{"SequenceIDs", func() { db.SequenceIDs() }},
			{"Stats", func() { db.Stats() }},
			{"PoolStats", func() { db.PoolStats() }},
			{"PinnedPages", func() { db.PinnedPages() }},
			{"ShardRanges", func() { db.ShardRanges() }},
		}
		for _, c := range calls {
			c.call()
			unlocked(t, db, fmt.Sprintf("%d shards: %s", db.Shards(), c.op))
		}
	}

	// The mutations that refuse while indexes exist run on a database
	// without one; each call below but DropIndex must reach its error.
	bare := newTestDB(t, 3, 20, 7)
	empty, err := Create(filepath.Join(t.TempDir(), "empty"))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		op   string
		db   *DB
		call func(db *DB) error
	}{
		{"ImportCSV of a malformed line", bare, func(db *DB) error { _, err := db.ImportCSV(strings.NewReader("x,1,y\n")); return err }},
		{"ImportCSV of a known id", bare, func(db *DB) error { _, err := db.ImportCSV(strings.NewReader("seq-0,1,2\n")); return err }},
		{"BuildIndex of an empty database", empty, func(db *DB) error { return db.BuildIndex("ix", spec) }},
		{"DropIndex", flat, func(db *DB) error { return db.DropIndex("ix") }},
		{"Save onto a directory", bare, func(db *DB) error {
			path := filepath.Join(db.Dir(), dataFileName)
			if err := os.Remove(path); err != nil {
				return nil
			}
			if err := os.MkdirAll(filepath.Join(path, "taken"), 0o755); err != nil {
				return nil
			}
			return db.Save()
		}},
	} {
		if err := c.call(c.db); (err == nil) != (c.op == "DropIndex") {
			t.Errorf("%s: err = %v", c.op, err)
		}
		unlocked(t, c.db, c.op)
	}

	finished := make(chan error, 1)
	go func() {
		finished <- errors.Join(root.BuildIndex("after", spec), root.Close(), flat.BuildIndex("after", spec), flat.Close())
	}()
	select {
	case err := <-finished:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("BuildIndex and Close did not finish within 30s: a call above kept a lock")
	}
}

// TestLoopsReleaseEachPart: the DB methods that visit every part hold one
// part's lock at a time. While the last part of a 3-shard root is held
// exclusively, each waits on it with every part before it free, so a
// mutation of one part never waits behind a read of another.
func TestLoopsReleaseEachPart(t *testing.T) {
	flat := newTestDB(t, 6, 40, 43)
	root, err := flat.PartitionInto(filepath.Join(t.TempDir(), "root"), 3)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { root.Close() })
	if err := root.BuildIndex("ix", IndexSpec{Categories: 8}); err != nil {
		t.Fatal(err)
	}
	ids := root.SequenceIDs()
	last := len(root.parts) - 1
	for _, tc := range []struct {
		name string
		call func()
	}{
		{"Save", func() { root.Save() }},
		{"Len", func() { root.Len() }},
		{"SequenceIDs", func() { root.SequenceIDs() }},
		{"Values", func() { root.Values(ids[len(ids)-1]) }},
		{"Stats", func() { root.Stats() }},
		{"PoolStats", func() { root.PoolStats() }},
		{"PinnedPages", func() { root.PinnedPages() }},
		{"ExportCSV", func() { root.ExportCSV(io.Discard) }},
		{"ShardRanges", func() { root.ShardRanges() }},
		{"Index", func() { root.Index("ix") }},
	} {
		root.parts[last].mu.Lock()
		done := make(chan struct{})
		go func() {
			defer close(done)
			tc.call()
		}()
		parkedIn(t, "seqdb.(*DB)."+tc.name)
		for i, p := range root.parts[:last] {
			if !p.mu.TryLock() {
				t.Errorf("%s holds part %d while it waits on part %d", tc.name, i, last)
				continue
			}
			p.mu.Unlock()
		}
		root.parts[last].mu.Unlock()
		<-done
	}
}
