package seqdb

import (
	"errors"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"slices"

	"twsearch/internal/sequence"
	"twsearch/internal/shard"
)

// ShardRange re-exports one shard's slice of the global sequence numbering.
type ShardRange = shard.Range

// PartialError re-exports the scatter-gather partial-failure error: a
// sharded search that lost one or more shards returns it, listing which
// shards answered. errors.Is sees through it to the first shard's cause.
type PartialError = shard.PartialError

// ShardedDB is DB: a sharded root is a DB of more than one shard.
type ShardedDB = DB

// ErrShardMismatch reports a sharded root whose shards disagree with its
// manifest or with each other: a shard holding another sequence count than
// its manifest range, points of another dimension than shard 0's, or an
// index that not every shard holds. Searching it
// would misnumber answers or fail part way through a stream, so Open
// refuses it; errors.Is finds it under Open's error.
var ErrShardMismatch = errors.New("shards disagree")

// shardDirName names shard i's directory under a sharded database root.
func shardDirName(i int) string { return fmt.Sprintf("shard-%03d", i) }

// PartitionInto splits the database into shards self-contained shard
// databases under dir: a manifest plus one complete database per shard,
// assigned by the deterministic contiguous partitioner (so any two runs over
// the same data produce byte-identical shard contents). Each shard must
// receive at least one sequence — an empty shard could never be indexed —
// so shards must not exceed the sequence count. Indexes are not copied;
// build them on the returned DB, which reads them through db's backend and
// envelope mode. On failure the shard directories and the
// manifest this call created are removed again, so the call can be
// repeated; nothing that existed before it is touched.
func (db *DB) PartitionInto(dir string, shards int) (_ *DB, err error) {
	n := db.Len()
	if shards > n {
		return nil, fmt.Errorf("seqdb: cannot split %d sequences into %d shards (every shard needs at least one sequence)", n, shards)
	}
	m, err := shard.NewContiguous(n, shards)
	if err != nil {
		return nil, err
	}
	var created []string
	defer func() {
		if err != nil {
			for _, p := range created {
				os.RemoveAll(p)
			}
		}
	}()
	// claim records path as this call's to remove on failure if it does
	// not exist yet.
	claim := func(path string) {
		if _, err := os.Lstat(path); errors.Is(err, fs.ErrNotExist) {
			created = append(created, path)
		}
	}
	claim(dir)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	ids := db.SequenceIDs()
	// The returned DB serves the datasets written here: a fresh shard holds
	// no index, so there is nothing to close, and nothing to read back.
	data := make([]*sequence.Dataset, len(m.Ranges))
	for i, r := range m.Ranges {
		sdir := filepath.Join(dir, shardDirName(i))
		claim(sdir)
		claim(filepath.Join(sdir, dataFileName))
		sdb, err := CreateDim(sdir, db.Dim())
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
		data[i] = sdb.parts[0].data
	}
	manifest := filepath.Join(dir, shard.ManifestName)
	claim(manifest)
	if err := m.Write(manifest); err != nil {
		return nil, err
	}
	opts := OpenOptions{Backend: db.parts[0].backend, Envelopes: db.parts[0].envelopes}
	return shardedDB(dir, m, func(i int) (*part, error) {
		return newPart(filepath.Join(dir, shardDirName(i)), data[i], opts), nil
	})
}

// OpenShardedWith opens a sharded database root as OpenWith does, and
// refuses a directory without a shard manifest.
func OpenShardedWith(dir string, opts OpenOptions) (*DB, error) {
	m, err := shard.ReadManifest(filepath.Join(dir, shard.ManifestName))
	if err != nil {
		return nil, err
	}
	return openSharded(dir, m, opts)
}

// openSharded opens every shard a manifest names, applying opts to each.
func openSharded(dir string, m *shard.Manifest, opts OpenOptions) (*DB, error) {
	return shardedDB(dir, m, func(i int) (*part, error) {
		return openPart(filepath.Join(dir, shardDirName(i)), opts)
	})
}

// shardedDB returns the DB of the sharded root dir over the parts open(i)
// returns, one per range of m, in order. It cross-checks each shard
// against the manifest and against shard 0: a shard whose sequence count
// is not its range's, or whose index names are not shard 0's, is refused
// with ErrShardMismatch, after every shard already opened is closed.
func shardedDB(dir string, m *shard.Manifest, open func(i int) (*part, error)) (*DB, error) {
	var parts []*part
	fail := func(err error) (*DB, error) {
		for _, p := range parts {
			p.close()
		}
		return nil, err
	}
	for i, r := range m.Ranges {
		p, err := open(i)
		if err != nil {
			return fail(fmt.Errorf("seqdb: opening shard %d: %w", i, err))
		}
		parts = append(parts, p)
		if err := checkShard(i, r, parts[0], p); err != nil {
			return fail(err)
		}
	}
	return newDB(dir, parts, true), nil
}

// checkShard compares shard i, p, with its manifest range r and with shard
// 0, first.
func checkShard(i int, r ShardRange, first, p *part) error {
	if got, want := p.data.Dim(), first.data.Dim(); got != want {
		return fmt.Errorf("seqdb: shard %d holds %d-dimensional points but shard 0 %d-dimensional ones: %w", i, got, want, ErrShardMismatch)
	}
	if got := p.data.Len(); got != r.Count {
		return fmt.Errorf("seqdb: shard %d holds %d sequences but the manifest says %d: %w", i, got, r.Count, ErrShardMismatch)
	}
	want, got := first.indexNames(), p.indexNames()
	slices.Sort(want)
	slices.Sort(got)
	for _, name := range want {
		if !slices.Contains(got, name) {
			return fmt.Errorf("seqdb: shard %d lacks index %q, which shard 0 holds: %w", i, name, ErrShardMismatch)
		}
	}
	for _, name := range got {
		if !slices.Contains(want, name) {
			return fmt.Errorf("seqdb: shard %d holds index %q, which shard 0 lacks: %w", i, name, ErrShardMismatch)
		}
	}
	return nil
}

// Shards returns the shard count: 1 for a flat database.
func (db *DB) Shards() int { return len(db.parts) }

// ShardRanges returns each shard's slice of the global sequence numbering.
func (db *DB) ShardRanges() []ShardRange {
	out := make([]ShardRange, len(db.parts))
	start := 0
	for i, p := range db.parts {
		p.mu.RLock()
		out[i] = ShardRange{Start: start, Count: p.data.Len()}
		p.mu.RUnlock()
		start += out[i].Count
	}
	return out
}

// Shard returns the i'th shard as a flat database of its own, numbered
// from its first sequence — read-only access for tools and tests; mutating
// a shard directly desynchronizes it from the manifest.
func (db *DB) Shard(i int) *DB {
	return newDB(db.parts[i].dir, []*part{db.parts[i]}, false)
}

// MergeStats combines per-partition dataset summaries into the summary of
// the union. Counts and extrema combine directly; mean and standard
// deviation recombine through the population moments (sums and sums of
// squares), so the result equals a single pass over the union up to
// floating-point rounding. DB.Stats uses it to aggregate a sharded root's
// shards.
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
