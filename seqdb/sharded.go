package seqdb

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"

	"twsearch/internal/shard"
)

// ShardRange re-exports one shard's slice of the global sequence numbering.
type ShardRange = shard.Range

// PartialError re-exports the scatter-gather partial-failure error: a
// sharded search that lost one or more shards returns it, listing which
// shards answered. errors.Is sees through it to the first shard's cause.
type PartialError = shard.PartialError

// shardDirName names shard i's directory under a sharded database root.
func shardDirName(i int) string { return fmt.Sprintf("shard-%03d", i) }

// IsSharded reports whether dir is a sharded database root (it holds a
// shard manifest) rather than a plain database directory.
func IsSharded(dir string) bool {
	_, err := os.Stat(filepath.Join(dir, shard.ManifestName))
	return err == nil
}

// ShardedDB is one logical sequence database split across N self-contained
// shards, each a complete DB in its own subdirectory with its own data file
// and indexes. Searches fan out over all shards in parallel and merge back
// into the global (sequence, start, end) order; results are byte-identical
// to the same search on the unsharded database. A ShardedDB is safe for
// concurrent searches; index builds and drops run shard by shard and are
// not atomic across shards.
type ShardedDB struct {
	dir      string
	manifest *shard.Manifest
	shards   []*DB
	coord    *shard.Coordinator
}

// localShard adapts one shard's *DB to the coordinator's Backend interface.
// It reports shard-local sequence numbers; the coordinator rebases them.
type localShard struct{ db *DB }

func (s localShard) Search(ctx context.Context, index string, q []float64, eps float64) ([]shard.Match, shard.Stats, error) {
	return s.db.SearchWith(ctx, index, q, eps, SearchOptions{})
}

func (s localShard) Scan(ctx context.Context, q []float64, eps float64) ([]shard.Match, shard.Stats, error) {
	return s.db.SeqScanCtx(ctx, q, eps)
}

func (s localShard) DistanceBound(ctx context.Context, index string, q []float64) (float64, error) {
	s.db.mu.RLock()
	defer s.db.mu.RUnlock()
	oi, ok := s.db.indexes[index]
	if !ok {
		return 0, errNoIndex(index)
	}
	return oi.ix.DistanceBound(q), nil
}

// PartitionInto splits the database into shards self-contained shard
// databases under dir: a manifest plus one complete DB per shard, assigned
// by the deterministic contiguous partitioner (so any two runs over the
// same data produce byte-identical shard contents). Each shard must receive
// at least one sequence — an empty shard could never be indexed — so
// shards must not exceed the sequence count. Indexes are not copied; build
// them on the returned ShardedDB.
func (db *DB) PartitionInto(dir string, shards int) (*ShardedDB, error) {
	n := db.Len()
	if shards > n {
		return nil, fmt.Errorf("seqdb: cannot split %d sequences into %d shards (every shard needs at least one sequence)", n, shards)
	}
	m, err := shard.NewContiguous(n, shards)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	ids := db.SequenceIDs()
	for i, r := range m.Ranges {
		sdb, err := Create(filepath.Join(dir, shardDirName(i)))
		if err != nil {
			return nil, fmt.Errorf("seqdb: creating shard %d: %w", i, err)
		}
		for g := r.Start; g < r.End(); g++ {
			if err := sdb.Add(ids[g], db.Values(ids[g])); err != nil {
				return nil, fmt.Errorf("seqdb: filling shard %d: %w", i, err)
			}
		}
		if err := sdb.Save(); err != nil {
			return nil, fmt.Errorf("seqdb: saving shard %d: %w", i, err)
		}
		if err := sdb.Close(); err != nil {
			return nil, fmt.Errorf("seqdb: closing shard %d: %w", i, err)
		}
	}
	if err := m.Write(filepath.Join(dir, shard.ManifestName)); err != nil {
		return nil, err
	}
	return OpenSharded(dir)
}

// OpenSharded opens a sharded database root: it reads and validates the
// manifest, opens every shard, and cross-checks each shard's sequence count
// against its manifest range — a mismatch means the manifest and the shard
// directories have diverged, and searching would silently misnumber (or
// drop) answers, so it is a loud error instead.
func OpenSharded(dir string) (*ShardedDB, error) {
	return OpenShardedWith(dir, OpenOptions{})
}

// OpenShardedWith is OpenSharded with open options — notably the storage
// backend — applied to every shard.
func OpenShardedWith(dir string, opts OpenOptions) (*ShardedDB, error) {
	m, err := shard.ReadManifest(filepath.Join(dir, shard.ManifestName))
	if err != nil {
		return nil, err
	}
	sdb := &ShardedDB{dir: dir, manifest: m}
	for i, r := range m.Ranges {
		d, err := OpenWith(filepath.Join(dir, shardDirName(i)), opts)
		if err != nil {
			sdb.Close()
			return nil, fmt.Errorf("seqdb: opening shard %d: %w", i, err)
		}
		sdb.shards = append(sdb.shards, d)
		if got := d.Len(); got != r.Count {
			sdb.Close()
			return nil, fmt.Errorf("seqdb: shard %d holds %d sequences but the manifest says %d", i, got, r.Count)
		}
	}
	backends := make([]shard.Backend, len(sdb.shards))
	for i, d := range sdb.shards {
		backends[i] = localShard{db: d}
	}
	coord, err := shard.NewCoordinator(backends, m.Ranges)
	if err != nil {
		sdb.Close()
		return nil, err
	}
	sdb.coord = coord
	return sdb, nil
}

// Close closes every shard.
func (s *ShardedDB) Close() error {
	var errs []error
	for i, d := range s.shards {
		if err := d.Close(); err != nil {
			errs = append(errs, fmt.Errorf("shard %d: %w", i, err))
		}
	}
	return errors.Join(errs...)
}

// Dir returns the sharded database root directory.
func (s *ShardedDB) Dir() string { return s.dir }

// Shards returns the shard count.
func (s *ShardedDB) Shards() int { return len(s.shards) }

// ShardRanges returns each shard's slice of the global sequence numbering.
func (s *ShardedDB) ShardRanges() []ShardRange {
	return append([]ShardRange(nil), s.manifest.Ranges...)
}

// ShardRanges reports an unsharded DB's topology: one shard covering the
// whole sequence numbering. It lets a DB and a ShardedDB answer the serving
// tier's topology query uniformly.
func (db *DB) ShardRanges() []ShardRange {
	return []ShardRange{{Start: 0, Count: db.Len()}}
}

// Shard returns the i'th shard's database — read-only access for tools and
// tests; mutating a shard directly desynchronizes it from the manifest.
func (s *ShardedDB) Shard(i int) *DB { return s.shards[i] }

// Len returns the total number of sequences across all shards.
func (s *ShardedDB) Len() int { return s.manifest.Sequences() }

// SequenceIDs returns all sequence ids in global order.
func (s *ShardedDB) SequenceIDs() []string {
	out := make([]string, 0, s.Len())
	for _, d := range s.shards {
		out = append(out, d.SequenceIDs()...)
	}
	return out
}

// Values returns the elements of the sequence with the given id, or nil.
func (s *ShardedDB) Values(id string) []float64 {
	for _, d := range s.shards {
		if v := d.Values(id); v != nil {
			return v
		}
	}
	return nil
}

// BuildIndex builds the named index on every shard, shard by shard. It is
// all or nothing: when a shard fails, the index is dropped again from the
// shards this call had already built, so the call can simply be repeated
// after fixing the cause. Shards that had the index before the call keep it.
func (s *ShardedDB) BuildIndex(name string, spec IndexSpec) error {
	for i, d := range s.shards {
		if err := d.BuildIndex(name, spec); err != nil {
			errs := []error{fmt.Errorf("seqdb: building index %q on shard %d: %w", name, i, err)}
			for j, built := range s.shards[:i] {
				if err := built.DropIndex(name); err != nil {
					errs = append(errs, fmt.Errorf("seqdb: rolling back index %q on shard %d: %w", name, j, err))
				}
			}
			return errors.Join(errs...)
		}
	}
	return nil
}

// DropIndex drops the named index from every shard that has it.
func (s *ShardedDB) DropIndex(name string) error {
	var errs []error
	found := false
	for i, d := range s.shards {
		err := d.DropIndex(name)
		switch {
		case err == nil:
			found = true
		case errors.Is(err, ErrNoIndex):
		default:
			errs = append(errs, fmt.Errorf("shard %d: %w", i, err))
		}
	}
	if err := errors.Join(errs...); err != nil {
		return err
	}
	if !found {
		return errNoIndex(name)
	}
	return nil
}

// Indexes lists the index names present on shard 0 — the shards are built
// in lockstep, so shard 0 is representative.
func (s *ShardedDB) Indexes() []string { return s.shards[0].Indexes() }

// Index aggregates a named index's metadata across shards: the spec from
// shard 0 and sizes/counts summed over all shards.
func (s *ShardedDB) Index(name string) (IndexInfo, error) {
	info, err := s.shards[0].Index(name)
	if err != nil {
		return IndexInfo{}, err
	}
	for _, d := range s.shards[1:] {
		ii, err := d.Index(name)
		if err != nil {
			return IndexInfo{}, err
		}
		info.SizeBytes += ii.SizeBytes
		info.Leaves += ii.Leaves
		info.Nodes += ii.Nodes
	}
	return info, nil
}

// Stats merges the shards' dataset summaries into the global summary; see
// MergeStats for the recombination argument.
func (s *ShardedDB) Stats() Stats {
	parts := make([]Stats, len(s.shards))
	for i, d := range s.shards {
		parts[i] = d.Stats()
	}
	return MergeStats(parts)
}

// MergeStats combines per-partition dataset summaries into the summary of
// the union. Counts and extrema combine directly; mean and standard
// deviation recombine through the population moments (sums and sums of
// squares), so the result equals a single pass over the union up to
// floating-point rounding. The serving tier uses it to aggregate shard and
// remote-leg statistics.
func MergeStats(parts []Stats) Stats {
	var out Stats
	sum, sumSq := 0.0, 0.0
	first := true
	for _, st := range parts {
		if st.Sequences == 0 {
			continue
		}
		out.Sequences += st.Sequences
		out.TotalElements += st.TotalElements
		if first {
			out.MinLen, out.MaxLen = st.MinLen, st.MaxLen
			out.MinValue, out.MaxValue = st.MinValue, st.MaxValue
			first = false
		} else {
			out.MinLen = min(out.MinLen, st.MinLen)
			out.MaxLen = max(out.MaxLen, st.MaxLen)
			out.MinValue = math.Min(out.MinValue, st.MinValue)
			out.MaxValue = math.Max(out.MaxValue, st.MaxValue)
		}
		n := float64(st.TotalElements)
		sum += st.MeanValue * n
		sumSq += (st.StdDev*st.StdDev + st.MeanValue*st.MeanValue) * n
	}
	if out.Sequences == 0 {
		return out
	}
	out.AvgLen = float64(out.TotalElements) / float64(out.Sequences)
	n := float64(out.TotalElements)
	out.MeanValue = sum / n
	if v := sumSq/n - out.MeanValue*out.MeanValue; v > 0 {
		out.StdDev = math.Sqrt(v)
	}
	return out
}

// PoolStats merges every shard's buffer-pool counters; each entry's Shards
// slice concatenates the pool shards of all database shards in shard order.
func (s *ShardedDB) PoolStats() []IndexPoolStats {
	merged := map[string]*IndexPoolStats{}
	var order []string
	for _, d := range s.shards {
		for _, ps := range d.PoolStats() {
			e, ok := merged[ps.Index]
			if !ok {
				e = &IndexPoolStats{Index: ps.Index}
				merged[ps.Index] = e
				order = append(order, ps.Index)
			}
			e.Shards = append(e.Shards, ps.Shards...)
		}
	}
	out := make([]IndexPoolStats, 0, len(order))
	for _, name := range order {
		out = append(out, *merged[name])
	}
	return out
}

// SearchWith runs a sharded range search: every shard in parallel, results
// merged into the global (sequence, start, end) order — byte-identical to
// the unsharded SearchWith over the same data.
func (s *ShardedDB) SearchWith(ctx context.Context, indexName string, q []float64, eps float64, opts SearchOptions) ([]Match, SearchStats, error) {
	return s.coord.Search(ctx, indexName, q, eps)
}

// SearchVisitWith streams answers to fn in global (sequence, start, end)
// order — shard i's answers are delivered as soon as shards 0..i have
// completed, while later shards are still searching. Returning false stops
// the search and cancels the remaining shards. Note the unsharded
// SearchVisitWith delivers in the index's traversal order, which is NOT the
// global position order; the sharded stream is the sorted order, identical
// to what SearchWith materializes.
func (s *ShardedDB) SearchVisitWith(ctx context.Context, indexName string, q []float64, eps float64, fn func(Match) bool, opts SearchOptions) (SearchStats, error) {
	if fn == nil {
		return SearchStats{}, fmt.Errorf("seqdb: nil visitor")
	}
	return s.coord.SearchVisit(ctx, indexName, q, eps, fn)
}

// SearchKNNWith returns the k globally nearest subsequences, byte-identical
// to the unsharded SearchKNNWith: the same threshold-expansion loop, each
// round one scatter-gather range search over every shard.
func (s *ShardedDB) SearchKNNWith(ctx context.Context, indexName string, q []float64, k int, opts SearchOptions) ([]Match, SearchStats, error) {
	return s.coord.SearchKNN(ctx, indexName, q, k)
}

// SeqScanCtx fans the exhaustive baseline out over the shards.
func (s *ShardedDB) SeqScanCtx(ctx context.Context, q []float64, eps float64) ([]Match, SearchStats, error) {
	return s.coord.Scan(ctx, q, eps)
}
