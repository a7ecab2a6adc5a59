package server

// This file is the routing tier: a Router is a Source whose shards live
// behind "legs" — local database directories or remote twsearchd daemons —
// so one frontend daemon can serve a logical database whose index shards
// are spread across machines. The Router reuses the scatter-gather
// coordinator: each leg is one backend, queries fan out leg-parallel with
// the caller's context (and therefore its deadline) propagated to every
// leg, and a leg that fails mid-search surfaces as a typed partial-failure
// error naming the shards that did answer.

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"

	"twsearch/internal/shard"
	"twsearch/seqdb"
	"twsearch/seqdb/client"
)

// Leg is one constituent of a Router: exactly one of Local (an already-open
// database or sharded database, any Source) or Remote (a twsearchd client
// plus the database name mounted there) is set.
type Leg struct {
	Local    Source
	Remote   *client.Client
	RemoteDB string
}

// Router fans searches out over an ordered list of legs holding consecutive
// slices of one logical database's sequence numbering: leg 0 holds the
// first block of sequences, leg 1 the next, and so on — the same contiguous
// discipline the shard partitioner uses, extended across machines. It
// implements Source, so it mounts on a Server like any local database.
type Router struct {
	legs   []Leg
	coord  *shard.Coordinator
	ranges []seqdb.ShardRange // flattened topology, leg sub-ranges rebased
}

// remoteLeg adapts one remote daemon's database to the coordinator Backend.
// The caller's ctx flows into every client call, so the request deadline
// propagates to the remote server both as a socket deadline and as the
// server-side timeout hint.
type remoteLeg struct {
	c  *client.Client
	db string
}

func (l remoteLeg) Search(ctx context.Context, index string, q []float64, eps float64, opts shard.Options) ([]shard.Match, shard.Stats, error) {
	return l.c.SearchWith(ctx, l.db, index, q, eps, seqdb.SearchOptions{Parallelism: opts.Parallelism})
}

func (l remoteLeg) Scan(ctx context.Context, q []float64, eps float64) ([]shard.Match, shard.Stats, error) {
	return l.c.SeqScan(ctx, l.db, q, eps)
}

// localLeg adapts a local Source to the coordinator Backend.
type localLeg struct{ src Source }

func (l localLeg) Search(ctx context.Context, index string, q []float64, eps float64, opts shard.Options) ([]shard.Match, shard.Stats, error) {
	var ms []seqdb.Match
	stats, err := l.src.SearchVisitWith(ctx, index, q, eps, func(m seqdb.Match) bool {
		ms = append(ms, m)
		return true
	}, seqdb.SearchOptions{Parallelism: opts.Parallelism})
	if err != nil {
		return nil, stats, err
	}
	// An unsharded DB's visitor delivers in traversal order, so the leg
	// sorts before the coordinator concatenates.
	sort.Slice(ms, func(i, j int) bool { return shard.PositionLess(ms[i], ms[j]) })
	return ms, stats, nil
}

func (l localLeg) Scan(ctx context.Context, q []float64, eps float64) ([]shard.Match, shard.Stats, error) {
	return l.src.SeqScanCtx(ctx, q, eps)
}

// NewRouter assembles a routing tier over the legs. It contacts every leg
// once (local call or one RPC per remote leg) to learn its sequence count
// and shard topology, then derives the global numbering by prefix sums in
// leg order. ctx bounds the topology fetch, not later searches.
func NewRouter(ctx context.Context, legs []Leg) (*Router, error) {
	if len(legs) == 0 {
		return nil, errors.New("server: router needs at least one leg")
	}
	r := &Router{legs: legs}
	backends := make([]shard.Backend, len(legs))
	coordRanges := make([]shard.Range, len(legs))
	base := 0
	for i, leg := range legs {
		var sub []seqdb.ShardRange
		switch {
		case leg.Local != nil && leg.Remote == nil:
			backends[i] = localLeg{src: leg.Local}
			sub = leg.Local.ShardRanges()
		case leg.Remote != nil && leg.Local == nil:
			backends[i] = remoteLeg{c: leg.Remote, db: leg.RemoteDB}
			ranges, err := leg.Remote.Shards(ctx, leg.RemoteDB)
			if err != nil {
				return nil, fmt.Errorf("server: fetching leg %d topology: %w", i, err)
			}
			sub = ranges
		default:
			return nil, fmt.Errorf("server: leg %d must set exactly one of Local and Remote", i)
		}
		count := 0
		for _, sr := range sub {
			r.ranges = append(r.ranges, seqdb.ShardRange{Start: base + sr.Start, Count: sr.Count})
			count += sr.Count
		}
		coordRanges[i] = shard.Range{Start: base, Count: count}
		base += count
	}
	coord, err := shard.NewCoordinator(backends, coordRanges)
	if err != nil {
		return nil, err
	}
	r.coord = coord
	return r, nil
}

// Legs returns the number of legs behind the router.
func (r *Router) Legs() int { return len(r.legs) }

// SearchVisitWith streams the fanned-out range search's answers in global
// (sequence, start, end) order; see ShardedDB.SearchVisitWith for the
// ordering and early-stop semantics.
func (r *Router) SearchVisitWith(ctx context.Context, index string, q []float64, eps float64, fn func(seqdb.Match) bool, opts seqdb.SearchOptions) (seqdb.SearchStats, error) {
	if fn == nil {
		return seqdb.SearchStats{}, fmt.Errorf("server: nil visitor")
	}
	return r.coord.SearchVisit(ctx, index, q, eps, fn, shard.Options{Parallelism: opts.Parallelism})
}

// SearchKNNWith returns the k globally nearest subsequences across all
// legs, byte-identical to the same search over the unpartitioned data.
func (r *Router) SearchKNNWith(ctx context.Context, index string, q []float64, k int, opts seqdb.SearchOptions) ([]seqdb.Match, seqdb.SearchStats, error) {
	return r.coord.SearchKNN(ctx, index, q, k, shard.Options{Parallelism: opts.Parallelism})
}

// SeqScanCtx fans the exhaustive baseline out over the legs.
func (r *Router) SeqScanCtx(ctx context.Context, q []float64, eps float64) ([]seqdb.Match, seqdb.SearchStats, error) {
	return r.coord.Scan(ctx, q, eps)
}

// SourceStats merges every leg's dataset summary and buffer-pool counters.
func (r *Router) SourceStats(ctx context.Context) (seqdb.Stats, []seqdb.IndexPoolStats, error) {
	parts := make([]seqdb.Stats, 0, len(r.legs))
	var pools []seqdb.IndexPoolStats
	poolAt := map[string]int{}
	for i, leg := range r.legs {
		var st seqdb.Stats
		var ps []seqdb.IndexPoolStats
		var err error
		if leg.Local != nil {
			st, ps, err = leg.Local.SourceStats(ctx)
		} else {
			st, ps, err = leg.Remote.StatsPools(ctx, leg.RemoteDB)
		}
		if err != nil {
			return seqdb.Stats{}, nil, fmt.Errorf("server: leg %d stats: %w", i, err)
		}
		parts = append(parts, st)
		for _, p := range ps {
			at, ok := poolAt[p.Index]
			if !ok {
				at = len(pools)
				poolAt[p.Index] = at
				pools = append(pools, seqdb.IndexPoolStats{Index: p.Index})
			}
			pools[at].Shards = append(pools[at].Shards, p.Shards...)
		}
	}
	return seqdb.MergeStats(parts), pools, nil
}

// SourceIndexes reports leg 0's index metadata with sizes and node counts
// summed across legs: the legs are built in lockstep, so the set of index
// names is common while the physical sizes are per-leg.
func (r *Router) SourceIndexes(ctx context.Context) ([]seqdb.IndexInfo, error) {
	var out []seqdb.IndexInfo
	at := map[string]int{}
	for i, leg := range r.legs {
		var infos []seqdb.IndexInfo
		var err error
		if leg.Local != nil {
			infos, err = leg.Local.SourceIndexes(ctx)
		} else {
			infos, err = leg.Remote.ListIndexes(ctx, leg.RemoteDB)
		}
		if err != nil {
			return nil, fmt.Errorf("server: leg %d indexes: %w", i, err)
		}
		for _, info := range infos {
			j, ok := at[info.Name]
			if !ok {
				at[info.Name] = len(out)
				out = append(out, info)
				continue
			}
			out[j].SizeBytes += info.SizeBytes
			out[j].Leaves += info.Leaves
			out[j].Nodes += info.Nodes
		}
	}
	return out, nil
}

// ShardRanges reports the flattened topology: every leg's own shard ranges,
// rebased into the router's global numbering, in leg order.
func (r *Router) ShardRanges() []seqdb.ShardRange {
	return append([]seqdb.ShardRange(nil), r.ranges...)
}

// ParseLegSpec parses one -route leg of the twsearchd command line: either
// `@addr/db` (a database mounted on a remote daemon) or a local database
// directory path (plain or sharded, auto-detected). It returns a Leg ready
// for NewRouter; for local legs the returned closer owns the opened
// database.
func ParseLegSpec(spec string) (Leg, func() error, error) {
	return ParseLegSpecWith(spec, seqdb.OpenOptions{})
}

// ParseLegSpecWith is ParseLegSpec with open options applied to local legs
// (remote legs read through the far daemon's own backend and ignore them).
func ParseLegSpecWith(spec string, opts seqdb.OpenOptions) (Leg, func() error, error) {
	if rest, ok := strings.CutPrefix(spec, "@"); ok {
		addr, db, ok := strings.Cut(rest, "/")
		if !ok || addr == "" {
			return Leg{}, nil, fmt.Errorf("server: remote leg %q, want @addr/db", spec)
		}
		c, err := client.Dial(addr)
		if err != nil {
			return Leg{}, nil, err
		}
		return Leg{Remote: c, RemoteDB: db}, c.Close, nil
	}
	if seqdb.IsSharded(spec) {
		db, err := seqdb.OpenShardedWith(spec, opts)
		if err != nil {
			return Leg{}, nil, err
		}
		return Leg{Local: shardedSource{db}}, db.Close, nil
	}
	db, err := seqdb.OpenWith(spec, opts)
	if err != nil {
		return Leg{}, nil, err
	}
	return Leg{Local: dbSource{db}}, db.Close, nil
}
