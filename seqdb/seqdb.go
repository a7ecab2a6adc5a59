// Package seqdb is the public API of twsearch: a small sequence database
// with disk-based suffix-tree indexes for similarity search under the time
// warping distance, implementing Park, Chu, Yoon and Hsu, "Efficient
// Searches for Similar Subsequences of Different Lengths in Sequence
// Databases" (ICDE 2000).
//
// A database lives in a directory: the raw sequences in one binary file and
// each index as a tree file plus its categorization scheme. Typical use:
//
//	db, _ := seqdb.Create(dir)
//	db.Add("stock-A", prices)
//	db.Save()
//	db.BuildIndex("fast", seqdb.IndexSpec{
//		Method:     seqdb.MethodMaxEntropy,
//		Categories: 20,
//		Sparse:     true, // the paper's SST_C
//	})
//	matches, stats, _ := db.SearchWith(ctx, "fast", query, 30, seqdb.SearchOptions{})
//
// SearchWith returns every subsequence (of any length, any alignment) whose
// time warping distance from the query is at most the threshold — with no
// false dismissals: the answer set is identical to what the exhaustive
// SeqScanCtx returns, typically at a small fraction of the work. Every
// operation has one entry point, (ctx, …, opts): SearchWith,
// SearchVisitWith (streaming), SearchKNNWith and SeqScanCtx, on a DB and on
// a ShardedDB alike; the context's deadline or cancellation aborts the
// traversal. Every search is one serial traversal.
//
// A DB is safe for concurrent use: reads and searches may run in parallel
// with each other, while mutations (Add, ImportCSV, BuildIndex, DropIndex,
// Close) take exclusive ownership. Any number of SearchWith/SearchKNNWith/
// SearchVisitWith calls run concurrently on one index handle — the index is
// immutable at query time, per-query state is pooled, and the tree's
// buffer pool is lock-striped — so one mounted database uses all the cores
// the callers bring.
package seqdb

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"twsearch/internal/core"
	"twsearch/internal/sequence"
	"twsearch/internal/shard"
)

const dataFileName = "data.twdb"

// Match is one answer subsequence. Start/End index the sequence's values as
// a half-open interval; Distance is the exact time warping distance from
// the query. It is the scatter-gather coordinator's match type, so sharded
// and routed answers reach the caller without a per-call copy.
type Match = shard.Match

// SearchStats re-exports the engine's work counters (nodes visited, table
// cells computed, candidates, false alarms, I/O, wall clock).
type SearchStats = core.SearchStats

// Stats re-exports dataset summary statistics.
type Stats = sequence.Stats

// DB is a sequence database bound to a directory.
type DB struct {
	dir string
	// backend is the page source every index tree is opened through;
	// "" means the buffer pool.
	backend Backend
	// envelopes is the envelope-cascade mode applied to every index this
	// handle opens or builds; the zero value (auto) runs the cascade.
	envelopes EnvelopeMode

	// mu guards data and the indexes map: readers and searches share it,
	// mutations hold it exclusively. Methods never call other locking
	// methods while holding it.
	mu      sync.RWMutex
	data    *sequence.Dataset
	indexes map[string]*openIndex
}

// openIndex pairs an index handle with the spec it was built from. The
// handle needs no lock of its own: a core.Index is safe for concurrent
// searches, and lifecycle transitions (build, drop, close) happen under
// db.mu held exclusively, which excludes every in-flight search holding it
// shared.
type openIndex struct {
	spec IndexSpec
	ix   *core.Index
}

// Create initializes a new database in dir (creating the directory if
// needed). It fails if dir already holds a database.
func Create(dir string) (*DB, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	dataPath := filepath.Join(dir, dataFileName)
	if _, err := os.Stat(dataPath); err == nil {
		return nil, fmt.Errorf("seqdb: %s already holds a database", dir)
	}
	db := &DB{dir: dir, data: sequence.NewDataset(), indexes: map[string]*openIndex{}}
	if err := db.Save(); err != nil {
		return nil, err
	}
	return db, nil
}

// Open loads an existing database and all its indexes through the default
// (buffer pool) backend.
func Open(dir string) (*DB, error) {
	return OpenWith(dir, OpenOptions{})
}

// OpenWith loads an existing database and all its indexes, reading index
// trees through the chosen storage backend.
func OpenWith(dir string, opts OpenOptions) (*DB, error) {
	data, err := sequence.LoadFile(filepath.Join(dir, dataFileName))
	if err != nil {
		return nil, fmt.Errorf("seqdb: loading dataset: %w", err)
	}
	db := &DB{dir: dir, backend: opts.Backend, envelopes: opts.Envelopes, data: data, indexes: map[string]*openIndex{}}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, "idx-") || !strings.HasSuffix(name, ".twt") {
			continue
		}
		idxName := strings.TrimSuffix(strings.TrimPrefix(name, "idx-"), ".twt")
		if err := db.openIndexFiles(idxName); err != nil {
			db.Close()
			return nil, fmt.Errorf("seqdb: opening index %q: %w", idxName, err)
		}
	}
	return db, nil
}

// Close releases every open index. The dataset is not implicitly saved.
func (db *DB) Close() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	var first error
	for _, oi := range db.indexes {
		if err := oi.ix.Close(); err != nil && first == nil {
			first = err
		}
	}
	db.indexes = map[string]*openIndex{}
	return first
}

// Dir returns the database directory.
func (db *DB) Dir() string { return db.dir }

// Add appends a sequence. Adding is rejected while indexes exist, because
// they would silently go stale; drop indexes first and rebuild after.
func (db *DB) Add(id string, values []float64) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if len(db.indexes) > 0 {
		return errors.New("seqdb: cannot add sequences while indexes exist; drop indexes first")
	}
	vals := append([]float64(nil), values...)
	_, err := db.data.Add(sequence.Sequence{ID: id, Values: vals})
	return err
}

// Save persists the dataset to disk.
func (db *DB) Save() error {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.data.SaveFile(filepath.Join(db.dir, dataFileName))
}

// Len returns the number of sequences.
func (db *DB) Len() int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.data.Len()
}

// SequenceIDs returns all sequence ids in insertion order.
func (db *DB) SequenceIDs() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := make([]string, db.data.Len())
	for i := range out {
		out[i] = db.data.Seq(i).ID
	}
	return out
}

// Values returns the elements of the sequence with the given id, or nil if
// absent. The slice must not be mutated.
func (db *DB) Values(id string) []float64 {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.valuesByID(id)
}

// valuesByID looks a sequence up by id. The caller holds db.mu.
func (db *DB) valuesByID(id string) []float64 {
	i := db.data.ByID(id)
	if i < 0 {
		return nil
	}
	return db.data.Values(i)
}

// Stats summarizes the dataset.
func (db *DB) Stats() Stats {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.data.ComputeStats()
}

// SeqScanCtx runs the exhaustive baseline: exact answers with no index.
// ctx is polled once per suffix start.
func (db *DB) SeqScanCtx(ctx context.Context, q []float64, eps float64) ([]Match, SearchStats, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	ms, stats, err := core.SeqScanCtx(ctx, db.data, q, eps, -1)
	if err != nil {
		return nil, stats, err
	}
	return db.publicMatches(ms), stats, nil
}

// publicMatches converts engine matches to the public form. The caller
// holds db.mu.
func (db *DB) publicMatches(ms []core.Match) []Match {
	out := make([]Match, len(ms))
	for i, m := range ms {
		out[i] = Match{
			SeqID:    db.data.Seq(m.Ref.Seq).ID,
			Seq:      m.Ref.Seq,
			Start:    m.Ref.Start,
			End:      m.Ref.End,
			Distance: m.Distance,
		}
	}
	return out
}
