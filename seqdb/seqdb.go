// Package seqdb is the public API of twsearch: a small sequence database
// with disk-based suffix-tree indexes for similarity search under the time
// warping distance, implementing Park, Chu, Yoon and Hsu, "Efficient
// Searches for Similar Subsequences of Different Lengths in Sequence
// Databases" (ICDE 2000).
//
// A database lives in a directory: the raw sequences in one binary file and
// each index as a tree file plus a record of its settings and
// categorization scheme, which commits it. Its sequences
// are of d-dimensional points, d ≥ 1 fixed at creation: Create makes a
// database of values (d = 1), CreateDim one of vectors such as
// trajectories, the paper's conclusion-section extension. Sequences and
// queries are point-major []float64 in every dimension, and every call
// below serves every d, except the few that say they are for d = 1 only.
// Typical use:
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
// SearchVisitWith (streaming), SearchKNNWith and SeqScanCtx; the context's
// deadline or cancellation aborts the traversal. Every search is one serial
// traversal.
//
// A DB holds one or more shards, and every search reaches them through one
// scatter-gather coordinator. A flat directory is a database of one shard,
// searched on the calling goroutine with no merge. A sharded root, written
// by PartitionInto, holds a MANIFEST.shards and one complete database per
// contiguous slice of the sequence numbering; Open reads it through the
// manifest, and its searches run on every shard at once and merge back into
// the global (sequence, start, end) order, with the answers of the flat
// database. Every answer stream, materialized or visited, arrives in that
// order.
//
// A DB is safe for concurrent use: reads and searches may run in parallel
// with each other, while mutations (Add, ImportCSV, BuildIndex, DropIndex,
// Close) take exclusive ownership. Any number of SearchWith/SearchKNNWith/
// SearchVisitWith calls run concurrently on one index handle — the index is
// immutable at query time, per-query state is pooled, and the tree is read
// through a shared mapping or, in the low-memory mode, a lock-striped
// buffer pool — so one mounted database uses all the cores the callers
// bring.
package seqdb

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"twsearch/internal/core"
	"twsearch/internal/sequence"
	"twsearch/internal/shard"
)

const dataFileName = "data.twdb"

// ErrDimension reports a dimension that does not fit: a query that is not
// a whole number of the database's points, an index record whose scheme
// is of another dimension than its dataset, or an operation
// defined for one-dimensional databases only — Align, SelectCategories,
// ExportCSV, ImportCSV, and serving — asked of one of dimension d > 1.
// errors.Is finds it under the error.
var ErrDimension = core.ErrDimension

// ErrOldLayout reports a directory in a layout Open no longer reads: the
// one vector databases had before they became databases of dimension
// d > 1 (a vectors.twvdb dataset or vidx-* index files), or an index of
// three files (an idx-*.meta beside its tree and scheme). Open refuses it;
// rebuild the database with CreateDim, Add and BuildIndex, or, for the
// second, remove the idx-* files and build the indexes again.
var ErrOldLayout = errors.New("old database layout; rebuild it")

// Match is one answer subsequence. Start/End index the sequence's points as
// a half-open interval; Distance is the exact time warping distance from
// the query. It is the scatter-gather coordinator's match type, so sharded
// answers reach the caller without a per-call copy.
type Match = shard.Match

// SearchStats re-exports the engine's work counters (nodes visited, table
// cells computed, candidates, false alarms, I/O, wall clock).
type SearchStats = core.SearchStats

// Stats re-exports dataset summary statistics.
type Stats = sequence.Stats

// DB is a sequence database bound to a directory: one shard, or the shards
// of a sharded root. Every search goes through the coordinator, and every
// other method is a loop over the shards.
type DB struct {
	dir   string
	parts []*part
	// coord searches the parts: every search of every DB goes through it.
	coord *shard.Coordinator
	// sharded records that a manifest fixes which sequences each part
	// holds: the DB is a sharded root, not a flat directory.
	sharded bool
}

// part is one shard of a DB: a directory with its own dataset and indexes,
// searched in its own sequence numbering. It is the coordinator's
// shard.Backend.
type part struct {
	dir string
	// backend is the page source every index tree is opened through;
	// "" means mmap.
	backend Backend
	// envelopes is the envelope-cascade mode applied to every index this
	// part opens or builds; the zero value (auto) runs the cascade.
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
// part.mu held exclusively, which excludes every in-flight search holding
// it shared.
type openIndex struct {
	spec IndexSpec
	ix   *core.Index
}

// Create initializes a new database of values (dimension 1) in dir
// (creating the directory if needed). It fails if dir already holds a
// database.
func Create(dir string) (*DB, error) { return CreateDim(dir, 1) }

// CreateDim initializes a new database of dim-dimensional points in dir, as
// Create does.
func CreateDim(dir string, dim int) (*DB, error) {
	if dim < 1 || dim > math.MaxUint16 {
		return nil, fmt.Errorf("seqdb: dimension %d out of range [1, %d]", dim, math.MaxUint16)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	dataPath := filepath.Join(dir, dataFileName)
	if _, err := os.Stat(dataPath); err == nil {
		return nil, fmt.Errorf("seqdb: %s already holds a database", dir)
	}
	db := newDB(dir, []*part{newPart(dir, sequence.NewDatasetDim(dim), OpenOptions{})}, false)
	if err := db.Save(); err != nil {
		return nil, err
	}
	return db, nil
}

// Open loads an existing database and all its indexes through the default
// (mmap) backend.
func Open(dir string) (*DB, error) {
	return OpenWith(dir, OpenOptions{})
}

// OpenWith loads an existing database and all its indexes, reading index
// trees through the chosen storage backend. A directory holding a shard
// manifest opens as a sharded root (see OpenShardedWith); any other as a
// flat database.
func OpenWith(dir string, opts OpenOptions) (*DB, error) {
	m, err := shard.ReadManifest(filepath.Join(dir, shard.ManifestName))
	if err == nil {
		return openSharded(dir, m, opts)
	}
	if !errors.Is(err, fs.ErrNotExist) {
		return nil, err
	}
	p, err := openPart(dir, opts)
	if err != nil {
		return nil, err
	}
	return newDB(dir, []*part{p}, false), nil
}

// newDB returns the DB over parts, whose searches all go through one
// coordinator; sharded records that a manifest fixes the parts.
func newDB(dir string, parts []*part, sharded bool) *DB {
	db := &DB{dir: dir, parts: parts, sharded: sharded}
	backends := make([]shard.Backend, len(parts))
	for i, p := range parts {
		backends[i] = p
	}
	// One range per part, and at least one part: nothing to refuse.
	db.coord, _ = shard.NewCoordinator(backends, db.ShardRanges(), db.Dim())
	return db
}

// newPart returns the part of directory dir over data, with no index open
// yet, reading its indexes as opts says.
func newPart(dir string, data *sequence.Dataset, opts OpenOptions) *part {
	return &part{dir: dir, backend: opts.Backend, envelopes: opts.Envelopes, data: data, indexes: map[string]*openIndex{}}
}

// openPart loads one shard's dataset and the indexes whose records it
// holds; a tree without its record is an uncommitted build, and is not
// opened. A directory holding a file of an old layout is refused with
// ErrOldLayout.
func openPart(dir string, opts OpenOptions) (*part, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	for _, e := range entries {
		name := e.Name()
		if name == "vectors.twvdb" || strings.HasPrefix(name, "vidx-") || strings.HasPrefix(name, "idx-") && strings.HasSuffix(name, ".meta") {
			return nil, fmt.Errorf("seqdb: %s: %w", filepath.Join(dir, name), ErrOldLayout)
		}
	}
	data, err := sequence.LoadFile(filepath.Join(dir, dataFileName))
	if err != nil {
		return nil, fmt.Errorf("seqdb: loading dataset: %w", err)
	}
	p := newPart(dir, data, opts)
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, "idx-") || !strings.HasSuffix(name, ".cat") {
			continue
		}
		idxName := strings.TrimSuffix(strings.TrimPrefix(name, "idx-"), ".cat")
		if err := p.openIndexFiles(idxName); err != nil {
			p.close()
			return nil, fmt.Errorf("seqdb: opening index %q: %w", idxName, err)
		}
	}
	return p, nil
}

// inShard names the shard an error came from; a flat database's errors
// stay as its one shard reported them.
func (db *DB) inShard(i int, err error) error {
	if err == nil || !db.sharded {
		return err
	}
	return fmt.Errorf("shard %d: %w", i, err)
}

// flat returns a flat database's one part. A sharded root refuses op: its
// manifest fixes which sequences each shard holds.
func (db *DB) flat(op string) (*part, error) {
	if db.sharded {
		return nil, fmt.Errorf("seqdb: cannot %s a sharded database; do it on the flat database and partition that again", op)
	}
	return db.parts[0], nil
}

// Close releases every open index. The dataset is not implicitly saved.
func (db *DB) Close() error {
	var errs []error
	for i, p := range db.parts {
		errs = append(errs, db.inShard(i, p.close()))
	}
	return errors.Join(errs...)
}

func (p *part) close() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	var first error
	for _, oi := range p.indexes {
		if err := oi.ix.Close(); err != nil && first == nil {
			first = err
		}
	}
	p.indexes = map[string]*openIndex{}
	return first
}

// Dir returns the database directory.
func (db *DB) Dir() string { return db.dir }

// Dim returns the dimension of the database's points: 1 for a database of
// values.
func (db *DB) Dim() int { return db.parts[0].data.Dim() }

// scalarOnly refuses op, which is defined for one-dimensional databases
// only, on a database of dimension d > 1.
func (db *DB) scalarOnly(op string) error {
	if d := db.Dim(); d > 1 {
		return fmt.Errorf("seqdb: cannot %s a %d-dimensional database: %w", op, d, ErrDimension)
	}
	return nil
}

// Add appends a sequence of points, point-major: point i of a
// d-dimensional database is values[i*d : (i+1)*d]. Adding is rejected
// while indexes exist, because they would silently go stale; drop indexes
// first and rebuild after.
func (db *DB) Add(id string, values []float64) error {
	p, err := db.flat("add sequences to")
	if err != nil {
		return err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.indexes) > 0 {
		return errors.New("seqdb: cannot add sequences while indexes exist; drop indexes first")
	}
	vals := append([]float64(nil), values...)
	_, err = p.data.Add(sequence.Sequence{ID: id, Values: vals})
	return err
}

// Save persists the dataset to disk.
func (db *DB) Save() error {
	for i, p := range db.parts {
		p.mu.RLock()
		err := p.data.SaveFile(filepath.Join(p.dir, dataFileName))
		p.mu.RUnlock()
		if err != nil {
			return db.inShard(i, err)
		}
	}
	return nil
}

// Len returns the number of sequences.
func (db *DB) Len() int {
	n := 0
	for _, p := range db.parts {
		p.mu.RLock()
		n += p.data.Len()
		p.mu.RUnlock()
	}
	return n
}

// SequenceIDs returns all sequence ids in insertion order, which is the
// global order of a sharded root.
func (db *DB) SequenceIDs() []string {
	out := []string{}
	for _, p := range db.parts {
		p.mu.RLock()
		for i := 0; i < p.data.Len(); i++ {
			out = append(out, p.data.Seq(i).ID)
		}
		p.mu.RUnlock()
	}
	return out
}

// Values returns the points of the sequence with the given id, point-major,
// or nil if absent. The slice must not be mutated.
func (db *DB) Values(id string) []float64 {
	var v []float64
	for _, p := range db.parts {
		p.mu.RLock()
		if i := p.data.ByID(id); i >= 0 {
			v = p.data.Values(i)
		}
		p.mu.RUnlock()
		if v != nil {
			return v
		}
	}
	return nil
}

// Stats summarizes the dataset. A sharded root merges its shards'
// summaries; see MergeStats.
func (db *DB) Stats() Stats {
	parts := make([]Stats, len(db.parts))
	for i, p := range db.parts {
		p.mu.RLock()
		parts[i] = p.data.ComputeStats()
		p.mu.RUnlock()
	}
	if len(parts) == 1 {
		return parts[0]
	}
	return MergeStats(parts)
}

// SeqScanCtx runs the exhaustive baseline: exact answers with no index.
// ctx is polled every 64 suffix starts.
func (db *DB) SeqScanCtx(ctx context.Context, q []float64, eps float64) ([]Match, SearchStats, error) {
	return db.coord.Scan(ctx, q, eps)
}

// Scan is SeqScanCtx on one part, in its own numbering, streaming to fn.
func (p *part) Scan(ctx context.Context, q []float64, eps float64, fn func(Match) bool) (SearchStats, error) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return core.SeqScanVisit(ctx, p.data, q, eps, -1, p.publicVisitor(fn))
}

// publicVisitor returns fn seeing engine matches in the public form. The
// caller holds p.mu while it runs.
func (p *part) publicVisitor(fn func(Match) bool) func(core.Match) bool {
	return func(m core.Match) bool {
		return fn(Match{
			SeqID:    p.data.Seq(m.Ref.Seq).ID,
			Seq:      m.Ref.Seq,
			Start:    m.Ref.Start,
			End:      m.Ref.End,
			Distance: m.Distance,
		})
	}
}
