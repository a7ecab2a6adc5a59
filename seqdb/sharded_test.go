package seqdb

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"twsearch/internal/shard"
)

// newShardedFrom partitions db into n shards under a fresh directory and
// builds the same index on every shard.
func newShardedFrom(t *testing.T, db *DB, n int, spec IndexSpec) *ShardedDB {
	t.Helper()
	sdb, err := db.PartitionInto(filepath.Join(t.TempDir(), "sharded"), n)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sdb.Close() })
	if err := sdb.BuildIndex("s", spec); err != nil {
		t.Fatal(err)
	}
	return sdb
}

// TestShardedByteIdentical is the subsystem's core contract: at every shard
// count, range searches, streamed visits, k-NN searches, and sequential
// scans return results deeply equal to the unsharded database — same
// matches, same exact distances, same order. Run under -race (make
// race-shard) this also exercises the scatter-gather concurrency.
//
// Its d = 2 arm partitions a database of dimension 2 into two shards.
func TestShardedByteIdentical(t *testing.T) {
	db := newTestDB(t, 11, 60, 3)
	spec := IndexSpec{Method: MethodMaxEntropy, Categories: 10, Sparse: true}
	rng := rand.New(rand.NewSource(4))
	queries := make([][]float64, 6)
	for i := range queries {
		queries[i] = testValues(rng, 8)
	}
	checkShardedByteIdentical(t, db, spec, queries, []int{1, 2, 3, 5})

	vdb := newVectorTestDB(t, 9, 40, 2, 5)
	var vqueries [][]float64
	for i := 0; i < 4; i++ {
		vqueries = append(vqueries, cut(vdb, fmt.Sprintf("vec-%d", 2*i), 4*i, 4*i+6))
	}
	checkShardedByteIdentical(t, vdb, IndexSpec{Categories: 4, Sparse: true}, vqueries, []int{2})
}

// checkShardedByteIdentical builds spec on db, partitions it into each of
// the shard counts and holds every search of each query at eps 12 on the
// root to the same search on db.
func checkShardedByteIdentical(t *testing.T, db *DB, spec IndexSpec, queries [][]float64, shardCounts []int) {
	t.Helper()
	if err := db.BuildIndex("s", spec); err != nil {
		t.Fatal(err)
	}
	const eps = 12.0
	for _, shards := range shardCounts {
		sdb := newShardedFrom(t, db, shards, spec)
		for qi, q := range queries {
			name := fmt.Sprintf("d=%d/shards=%d/q%d", db.Dim(), shards, qi)

			want, _, err := search(db, "s", q, eps)
			if err != nil {
				t.Fatal(err)
			}
			got, _, err := search(sdb, "s", q, eps)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s: Search diverged\n got %v\nwant %v", name, got, want)
			}

			// The sharded visitor must stream exactly the materialized
			// answer set, in global (sequence, start, end) order.
			var visited []Match
			if _, err := searchVisit(sdb, "s", q, eps, func(m Match) bool {
				visited = append(visited, m)
				return true
			}); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if len(visited) != len(want) || (len(want) > 0 && !reflect.DeepEqual(visited, want)) {
				t.Errorf("%s: SearchVisit diverged from Search", name)
			}

			for _, k := range []int{1, 3, 7} {
				wantK, wantStats, err := searchKNN(db, "s", q, k)
				if err != nil {
					t.Fatal(err)
				}
				gotK, gotStats, err := searchKNN(sdb, "s", q, k)
				if err != nil {
					t.Fatalf("%s k=%d: %v", name, k, err)
				}
				if !reflect.DeepEqual(gotK, wantK) {
					t.Errorf("%s: SearchKNN(k=%d) diverged\n got %v\nwant %v", name, k, gotK, wantK)
				}
				// One loop runs both: over a single shard the coordinator
				// makes the same expansion rounds, so visits the same nodes.
				if shards == 1 && gotStats.NodesVisited != wantStats.NodesVisited {
					t.Errorf("%s: SearchKNN(k=%d) visited %d nodes over one shard, %d unsharded", name, k, gotStats.NodesVisited, wantStats.NodesVisited)
				}
			}

			wantScan, _, err := seqScan(db, q, eps)
			if err != nil {
				t.Fatal(err)
			}
			gotScan, _, err := seqScan(sdb, q, eps)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if !reflect.DeepEqual(gotScan, wantScan) {
				t.Errorf("%s: SeqScan diverged", name)
			}
		}
	}
}

// TestShardedVisitEarlyStop checks that a visitor returning false stops a
// sharded stream without error, delivering a prefix of the global order.
func TestShardedVisitEarlyStop(t *testing.T) {
	db := newTestDB(t, 6, 50, 5)
	spec := IndexSpec{Method: MethodMaxEntropy, Categories: 10, Sparse: true}
	if err := db.BuildIndex("s", spec); err != nil {
		t.Fatal(err)
	}
	sdb := newShardedFrom(t, db, 3, spec)
	q := db.Values("seq-0")[:8]

	full, _, err := search(sdb, "s", q, 15)
	if err != nil {
		t.Fatal(err)
	}
	if len(full) < 2 {
		t.Skipf("need at least 2 matches to test early stop, got %d", len(full))
	}
	var prefix []Match
	if _, err := searchVisit(sdb, "s", q, 15, func(m Match) bool {
		prefix = append(prefix, m)
		return len(prefix) < 2
	}); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(prefix, full[:2]) {
		t.Errorf("early-stopped stream %v is not a prefix of %v", prefix, full[:4])
	}
}

func TestShardedOpenAndTopology(t *testing.T) {
	db := newTestDB(t, 7, 40, 9)
	dir := filepath.Join(t.TempDir(), "sharded")
	sdb, err := db.PartitionInto(dir, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer sdb.Close()

	// Open finds the manifest; a flat directory is one shard.
	reopened, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	if reopened.Shards() != 3 || db.Shards() != 1 {
		t.Errorf("Shards = %d reopened and %d flat, want 3 and 1", reopened.Shards(), db.Shards())
	}
	if sdb.Len() != 7 || sdb.Shards() != 3 {
		t.Errorf("Len=%d Shards=%d, want 7 and 3", sdb.Len(), sdb.Shards())
	}
	want := []ShardRange{{Start: 0, Count: 3}, {Start: 3, Count: 2}, {Start: 5, Count: 2}}
	if got := sdb.ShardRanges(); !reflect.DeepEqual(got, want) {
		t.Errorf("ShardRanges = %v, want %v", got, want)
	}
	if got := sdb.SequenceIDs(); !reflect.DeepEqual(got, db.SequenceIDs()) {
		t.Errorf("SequenceIDs = %v, want the unsharded order", got)
	}
	// Stats must recombine to the single-pass summary.
	flat, merged := db.Stats(), sdb.Stats()
	if flat.Sequences != merged.Sequences || flat.TotalElements != merged.TotalElements ||
		flat.MinLen != merged.MinLen || flat.MaxLen != merged.MaxLen ||
		math.Abs(flat.MeanValue-merged.MeanValue) > 1e-9 ||
		math.Abs(flat.StdDev-merged.StdDev) > 1e-9 {
		t.Errorf("merged stats %+v diverge from unsharded %+v", merged, flat)
	}
	// The methods that loop over the shards dump the global order; the
	// ones that would renumber a shard refuse a sharded root.
	var flatCSV, shardedCSV bytes.Buffer
	if err := errors.Join(db.ExportCSV(&flatCSV), sdb.ExportCSV(&shardedCSV)); err != nil {
		t.Fatal(err)
	}
	if shardedCSV.String() != flatCSV.String() {
		t.Error("ExportCSV of the sharded root differs from the flat database's")
	}
	if err := sdb.Add("extra", []float64{1, 2, 3}); err == nil {
		t.Error("Add on a sharded root succeeded")
	}
	if _, err := sdb.ImportCSV(strings.NewReader("extra,1,2,3\n")); err == nil {
		t.Error("ImportCSV on a sharded root succeeded")
	}
	if _, _, err := sdb.SelectCategories(IndexSpec{}, []int{4}, [][]float64{{1, 2, 3}}, 1, CostModel{Wt: 1}); err == nil {
		t.Error("SelectCategories on a sharded root succeeded")
	}
	if sdb.Len() != 7 {
		t.Errorf("Len = %d after the refused writes, want 7", sdb.Len())
	}
}

func TestPartitionRejectsTooManyShards(t *testing.T) {
	db := newTestDB(t, 3, 30, 1)
	if _, err := db.PartitionInto(filepath.Join(t.TempDir(), "s"), 4); err == nil {
		t.Error("4 shards over 3 sequences must fail: every shard needs a sequence")
	}
}

// TestOpenShardedCorruption: any divergence between the manifest and the
// shard directories must be a loud open-time error, not silent misrouting.
func TestOpenShardedCorruption(t *testing.T) {
	db := newTestDB(t, 6, 30, 2)
	dir := filepath.Join(t.TempDir(), "sharded")
	sdb, err := db.PartitionInto(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	sdb.Close()
	manifest := filepath.Join(dir, shard.ManifestName)

	// Manifest says 3 sequences in shard 1, directory holds 3 but claims 4.
	if err := os.WriteFile(manifest,
		[]byte("shards=2\nassign=contiguous\nrange=0:0:2\nrange=1:2:4\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); !errors.Is(err, ErrShardMismatch) {
		t.Errorf("count mismatch between manifest and shard dir: %v, want ErrShardMismatch", err)
	}

	// Truncated manifest.
	if err := os.WriteFile(manifest, []byte("shards=2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err == nil {
		t.Error("truncated manifest must fail")
	}

	// Manifest deleted: not a sharded root at all.
	if err := os.Remove(manifest); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenShardedWith(dir, OpenOptions{}); err == nil {
		t.Error("missing manifest must fail")
	}

	// A manifest naming a shard directory that does not exist.
	if err := os.WriteFile(manifest,
		[]byte("shards=3\nassign=contiguous\nrange=0:0:3\nrange=1:3:2\nrange=2:5:1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err == nil {
		t.Error("missing shard directory must fail")
	}
}

// TestOpenMissingShardIsNotExist: a sharded root whose shard directory is
// gone fails to open with an error that names the shard and still wraps
// fs.ErrNotExist, so a caller can tell a missing file from a corrupt one.
func TestOpenMissingShardIsNotExist(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "sharded")
	sdb, err := newTestDB(t, 6, 30, 2).PartitionInto(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	sdb.Close()
	if err := os.RemoveAll(filepath.Join(dir, shardDirName(1))); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenWith(dir, OpenOptions{}); !errors.Is(err, fs.ErrNotExist) || !strings.Contains(err.Error(), "shard 1") {
		t.Errorf("opening a root missing shard 1: %v, want an error naming the shard and wrapping fs.ErrNotExist", err)
	}
}

func TestShardedIndexLifecycle(t *testing.T) {
	db := newTestDB(t, 5, 40, 6)
	spec := IndexSpec{Method: MethodMaxEntropy, Categories: 8, Sparse: true}
	sdb, err := db.PartitionInto(filepath.Join(t.TempDir(), "s"), 2)
	if err != nil {
		t.Fatal(err)
	}
	defer sdb.Close()
	if err := sdb.BuildIndex("ix", spec); err != nil {
		t.Fatal(err)
	}
	if got := sdb.Indexes(); !reflect.DeepEqual(got, []string{"ix"}) {
		t.Errorf("Indexes = %v", got)
	}
	info, err := sdb.Index("ix")
	if err != nil {
		t.Fatal(err)
	}
	var wantLeaves uint64
	for i := 0; i < sdb.Shards(); i++ {
		ii, err := sdb.Shard(i).Index("ix")
		if err != nil {
			t.Fatal(err)
		}
		wantLeaves += ii.Leaves
	}
	if info.Leaves != wantLeaves {
		t.Errorf("aggregate Leaves = %d, want %d", info.Leaves, wantLeaves)
	}
	if err := sdb.DropIndex("ix"); err != nil {
		t.Fatal(err)
	}
	if err := sdb.DropIndex("ix"); !errors.Is(err, ErrNoIndex) {
		t.Errorf("double drop: want ErrNoIndex, got %v", err)
	}
}

// TestShardedBuildIndexRetryable: a build that fails on a later shard rolls
// the earlier shards back, leaves no scratch behind, and succeeds when
// repeated after the cause is fixed. The failure is a directory squatting on
// the last shard's tree path (the final rename cannot replace it) — unlike a
// read-only directory it also stops a root test runner.
func TestShardedBuildIndexRetryable(t *testing.T) {
	db := newTestDB(t, 9, 40, 6)
	spec := IndexSpec{Method: MethodMaxEntropy, Categories: 8}
	sdb, err := db.PartitionInto(filepath.Join(t.TempDir(), "s"), 3)
	if err != nil {
		t.Fatal(err)
	}
	defer sdb.Close()
	block := sdb.parts[2].treePath("ix")
	if err := os.Mkdir(block, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := sdb.BuildIndex("ix", spec); err == nil {
		t.Fatal("build over a blocked shard succeeded")
	}
	for i := 0; i < sdb.Shards(); i++ {
		if got := sdb.Shard(i).Indexes(); len(got) != 0 {
			t.Errorf("shard %d keeps indexes %v after the failed build", i, got)
		}
		entries, err := os.ReadDir(sdb.Shard(i).Dir())
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			blocker := filepath.Join(sdb.Shard(i).Dir(), e.Name()) == block
			if strings.HasPrefix(e.Name(), ".twtree-") || (strings.HasPrefix(e.Name(), "idx-") && !blocker) {
				t.Errorf("shard %d: failed build left %s behind", i, e.Name())
			}
		}
	}
	if err := os.Remove(block); err != nil {
		t.Fatal(err)
	}
	if err := sdb.BuildIndex("ix", spec); err != nil {
		t.Fatalf("retry after fixing the shard: %v", err)
	}
	if err := db.BuildIndex("ix", spec); err != nil {
		t.Fatal(err)
	}
	q := db.Values("seq-0")[:8]
	want, _, err := search(db, "ix", q, 2)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := search(sdb, "ix", q, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 || !reflect.DeepEqual(got, want) {
		t.Errorf("rebuilt sharded index returns %d matches, unsharded %d", len(got), len(want))
	}
}

// TestShardedSearchContext checks deadline propagation into the fan-out.
func TestShardedSearchContext(t *testing.T) {
	db := newTestDB(t, 6, 40, 8)
	spec := IndexSpec{Method: MethodMaxEntropy, Categories: 8, Sparse: true}
	sdb := newShardedFrom(t, db, 2, spec)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := sdb.SearchWith(ctx, "s", db.Values("seq-0")[:6], 5, SearchOptions{})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("want context.Canceled through the fan-out, got %v", err)
	}
}

func TestMergeStatsMoments(t *testing.T) {
	// Hand-computable recombination: two parts whose union is {1..6} as one
	// sequence of six elements... simpler: verify against a direct
	// computation over the concatenated population.
	vals := [][]float64{{1, 2, 3}, {10, 20, 30, 40}}
	parts := make([]Stats, len(vals))
	var all []float64
	for i, vs := range vals {
		parts[i] = statsOf(vs)
		all = append(all, vs...)
	}
	got := MergeStats(parts)
	want := statsOf(all)
	if math.Abs(got.MeanValue-want.MeanValue) > 1e-9 || math.Abs(got.StdDev-want.StdDev) > 1e-9 {
		t.Errorf("merged mean/stddev %.6f/%.6f, want %.6f/%.6f",
			got.MeanValue, got.StdDev, want.MeanValue, want.StdDev)
	}
	if got.TotalElements != want.TotalElements ||
		math.Abs(got.MinValue-want.MinValue) > 0 || math.Abs(got.MaxValue-want.MaxValue) > 0 {
		t.Errorf("merged %+v, want %+v", got, want)
	}
	// Empty parts are identity elements.
	if m := MergeStats([]Stats{{}, parts[0], {}}); m.TotalElements != parts[0].TotalElements {
		t.Errorf("empty parts changed the merge: %+v", m)
	}
}

// statsOf computes a population's summary the direct way.
func statsOf(vs []float64) Stats {
	st := Stats{Sequences: 1, TotalElements: len(vs), MinLen: len(vs), MaxLen: len(vs), AvgLen: float64(len(vs))}
	st.MinValue, st.MaxValue = vs[0], vs[0]
	sum := 0.0
	for _, v := range vs {
		st.MinValue = math.Min(st.MinValue, v)
		st.MaxValue = math.Max(st.MaxValue, v)
		sum += v
	}
	st.MeanValue = sum / float64(len(vs))
	varSum := 0.0
	for _, v := range vs {
		varSum += (v - st.MeanValue) * (v - st.MeanValue)
	}
	st.StdDev = math.Sqrt(varSum / float64(len(vs)))
	return st
}

// A NaN threshold or a non-finite query value is the request's fault: a
// sharded database refuses it before the scatter, as the unsharded one
// does, rather than reporting every shard failed.
func TestShardedRefusesNonFinite(t *testing.T) {
	db := newTestDB(t, 4, 20, 9)
	checkNonFiniteRefused(t, newShardedFrom(t, db, 2, IndexSpec{Method: MethodMaxEntropy, Categories: 4}), "s")
}

// TestOpenRefusesShardMismatch: shards that disagree on their indexes are
// refused at open with ErrShardMismatch, naming the shard and the index,
// rather than opened to fail part way through a stream.
func TestOpenRefusesShardMismatch(t *testing.T) {
	db := newTestDB(t, 6, 40, 3)
	spec := IndexSpec{Method: MethodMaxEntropy, Categories: 8}
	for _, tc := range []struct {
		name  string
		spoil func(sdb *DB) error
		want  string
	}{
		{"shard lacks an index", func(sdb *DB) error {
			p := sdb.parts[1]
			return errors.Join(os.Remove(p.treePath("ix")), os.Remove(p.recordPath("ix")))
		}, `shard 1 lacks index "ix"`},
		{"shard holds an extra index", func(sdb *DB) error {
			return sdb.Shard(1).BuildIndex("solo", spec)
		}, `shard 1 holds index "solo"`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "sharded")
			sdb, err := db.PartitionInto(dir, 2)
			if err != nil {
				t.Fatal(err)
			}
			if err := sdb.BuildIndex("ix", spec); err != nil {
				t.Fatal(err)
			}
			if err := tc.spoil(sdb); err != nil {
				t.Fatal(err)
			}
			if err := sdb.Close(); err != nil {
				t.Fatal(err)
			}
			got, err := Open(dir)
			if err == nil {
				got.Close()
				t.Fatal("shards with different indexes opened")
			}
			if !errors.Is(err, ErrShardMismatch) || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("Open = %v, want ErrShardMismatch naming %s", err, tc.want)
			}
		})
	}
}

// TestPartitionIntoRetryAfterFailure: a failed PartitionInto removes what it
// created, and only that, so the call succeeds once the obstacle is gone.
func TestPartitionIntoRetryAfterFailure(t *testing.T) {
	db := newTestDB(t, 6, 40, 4)
	out := filepath.Join(t.TempDir(), "out")
	// An empty shard-000 directory the call may use but must not remove,
	// and a database in shard-001 it cannot overwrite.
	if err := os.MkdirAll(filepath.Join(out, shardDirName(0)), 0o755); err != nil {
		t.Fatal(err)
	}
	obstacle, err := Create(filepath.Join(out, shardDirName(1)))
	if err != nil {
		t.Fatal(err)
	}
	if err := obstacle.Close(); err != nil {
		t.Fatal(err)
	}
	if sdb, err := db.PartitionInto(out, 3); err == nil {
		sdb.Close()
		t.Fatal("partitioned over an existing shard database")
	}
	for _, name := range []string{shardDirName(0), shardDirName(1), filepath.Join(shardDirName(1), dataFileName)} {
		if _, err := os.Stat(filepath.Join(out, name)); err != nil {
			t.Errorf("the failed call removed %s, which it did not create: %v", name, err)
		}
	}
	for _, name := range []string{filepath.Join(shardDirName(0), dataFileName), shardDirName(2), shard.ManifestName} {
		if _, err := os.Stat(filepath.Join(out, name)); !errors.Is(err, fs.ErrNotExist) {
			t.Errorf("the failed call left %s behind: %v", name, err)
		}
	}

	if err := os.RemoveAll(filepath.Join(out, shardDirName(1))); err != nil {
		t.Fatal(err)
	}
	sdb, err := db.PartitionInto(out, 3)
	if err != nil {
		t.Fatalf("retry after removing the obstacle: %v", err)
	}
	defer sdb.Close()
	if got := sdb.SequenceIDs(); !reflect.DeepEqual(got, db.SequenceIDs()) {
		t.Errorf("retried partition holds %v, want %v", got, db.SequenceIDs())
	}
}

// TestOneShardRootMatchesFlat: a flat directory and a 1-shard root, opened
// by the same OpenWith, give the same answers in the same order, the same
// Stats and the same errors — a missing index and a tree that cannot be
// read alike — with no PartialError and no shard prefix: one shard is one
// path, whatever its directory holds.
func TestOneShardRootMatchesFlat(t *testing.T) {
	src := newTestDB(t, 8, 50, 5)
	spec := IndexSpec{Method: MethodMaxEntropy, Categories: 10, Sparse: true}
	if err := src.BuildIndex("s", spec); err != nil {
		t.Fatal(err)
	}
	root := filepath.Join(t.TempDir(), "root")
	one, err := src.PartitionInto(root, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := errors.Join(one.BuildIndex("s", spec), one.Close()); err != nil {
		t.Fatal(err)
	}
	open := func(opts OpenOptions) (flat, sharded *DB) {
		t.Helper()
		flat, err := OpenWith(src.Dir(), opts)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { flat.Close() })
		sharded, err = OpenWith(root, opts)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { sharded.Close() })
		if flat.sharded || !sharded.sharded {
			t.Fatal("want a flat database and a 1-shard root")
		}
		return flat, sharded
	}
	flat, sharded := open(OpenOptions{Backend: BackendMmap})
	if flat.Stats() != sharded.Stats() {
		t.Errorf("Stats: flat %+v, 1-shard root %+v", flat.Stats(), sharded.Stats())
	}

	visit := func(db *DB, index string, q []float64) ([]Match, SearchStats, error) {
		var out []Match
		st, err := searchVisit(db, index, q, 10, func(m Match) bool {
			out = append(out, m)
			return true
		})
		return out, st, err
	}
	ops := func(index string, q []float64) []struct {
		name string
		run  func(db *DB) ([]Match, SearchStats, error)
	} {
		return []struct {
			name string
			run  func(db *DB) ([]Match, SearchStats, error)
		}{
			{"search", func(db *DB) ([]Match, SearchStats, error) { return search(db, index, q, 10) }},
			{"visit", func(db *DB) ([]Match, SearchStats, error) { return visit(db, index, q) }},
			{"k-NN", func(db *DB) ([]Match, SearchStats, error) { return searchKNN(db, index, q, 5) }},
		}
	}
	rng := rand.New(rand.NewSource(6))
	for qi := 0; qi < 5; qi++ {
		q := testValues(rng, 8)
		scan := struct {
			name string
			run  func(db *DB) ([]Match, SearchStats, error)
		}{"scan", func(db *DB) ([]Match, SearchStats, error) { return seqScan(db, q, 10) }}
		for _, op := range append(ops("s", q), scan) {
			want, _, err := op.run(flat)
			if err != nil {
				t.Fatal(err)
			}
			got, _, err := op.run(sharded)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("q%d %s: 1-shard root %v, flat %v", qi, op.name, got, want)
			}
		}
	}

	// checkSameError holds the root's failure to the flat database's, which
	// must wrap every error of want.
	checkSameError := func(what string, flat, sharded *DB, index string, want ...error) {
		t.Helper()
		for _, op := range ops(index, testValues(rng, 8)) {
			_, _, flatErr := op.run(flat)
			_, _, rootErr := op.run(sharded)
			var pe *PartialError
			switch {
			case !isAll(flatErr, want):
				t.Errorf("%s %s: flat database returned %v, want %v", what, op.name, flatErr, want)
			case rootErr == nil || rootErr.Error() != flatErr.Error():
				t.Errorf("%s %s: 1-shard root returned %v, flat database %v", what, op.name, rootErr, flatErr)
			case errors.As(rootErr, &pe):
				t.Errorf("%s %s: 1-shard root returned a partial failure: %v", what, op.name, rootErr)
			}
		}
	}
	checkSameError("missing index", flat, sharded, "nope", ErrNoIndex)

	// A tree cut short, read once through the pool, named, and once through
	// the default mapping: each arm opens both databases before it cuts a
	// fresh copy of their trees, so neither has read a page of it yet.
	if err := errors.Join(flat.Close(), sharded.Close()); err != nil {
		t.Fatal(err)
	}
	trees := []string{filepath.Join(src.Dir(), "idx-s.twt"), filepath.Join(root, shardDirName(0), "idx-s.twt")}
	whole := make([][]byte, len(trees))
	for i, tree := range trees {
		if whole[i], err = os.ReadFile(tree); err != nil {
			t.Fatal(err)
		}
	}
	for _, backend := range []Backend{BackendPool, ""} {
		for i, tree := range trees {
			if err := os.WriteFile(tree, whole[i], 0o644); err != nil {
				t.Fatal(err)
			}
		}
		flat, sharded := open(OpenOptions{Backend: backend})
		for i, tree := range trees {
			if err := os.Truncate(tree, int64(len(whole[i]))/2/4096*4096); err != nil {
				t.Fatal(err)
			}
		}
		checkSameError("cut tree through "+backend.String(), flat, sharded, "s", ErrIndexRead, io.ErrUnexpectedEOF)
		if n, m := flat.PinnedPages(), sharded.PinnedPages(); n != 0 || m != 0 {
			t.Errorf("cut tree through %s: %d and %d pages pinned after the failed searches", backend, n, m)
		}
		if err := errors.Join(flat.Close(), sharded.Close()); err != nil {
			t.Fatal(err)
		}
	}
}

// isAll reports whether err wraps every error of targets.
func isAll(err error, targets []error) bool {
	for _, target := range targets {
		if !errors.Is(err, target) {
			return false
		}
	}
	return true
}

// TestPartitionIntoKeepsOpenOptions partitions a database opened through
// mmap with the envelope gate off: every part of the result reads the index
// built on it through mmap, one source with no pool stripes, with the gate
// off, as Open with the same options would.
func TestPartitionIntoKeepsOpenOptions(t *testing.T) {
	src := newTestDB(t, 6, 40, 7)
	src.Close()
	db, err := OpenWith(src.Dir(), OpenOptions{Backend: BackendMmap, Envelopes: EnvelopesOff})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	sdb := newShardedFrom(t, db, 2, IndexSpec{Categories: 6})
	for i := 0; i < sdb.Shards(); i++ {
		if st := sdb.Shard(i).PoolStats(); len(st) != 1 || len(st[0].Shards) != 1 {
			t.Errorf("part %d reads its index through %+v, want one mmap source", i, st)
		}
		if !sdb.parts[i].indexes["s"].ix.DisableEnvelopes {
			t.Errorf("part %d runs the envelope gate, which its parent turned off", i)
		}
	}
}
