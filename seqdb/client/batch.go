package client

// The client side of the protocol-v4 batch RPC: many queries travel in one
// TBatch frame and the answers come back as one multiplexed stream, so a
// query workload pays one round-trip and one server admission slot instead
// of N. The client demultiplexes by item ID and returns per-item results
// in request order.

import (
	"context"
	"fmt"
	"sort"

	"twsearch/internal/shard"
	"twsearch/internal/wire"
	"twsearch/seqdb"
)

// sortMatches puts matches in the deterministic (sequence, start, end)
// order the in-process seqdb API returns.
func sortMatches(ms []seqdb.Match) {
	sort.Slice(ms, func(i, j int) bool { return shard.PositionLess(ms[i], ms[j]) })
}

// BatchQuery is one query of a Batch call: a range search (K == 0, Eps is
// the threshold) or a k-nearest-neighbor search (K > 0, Eps ignored)
// through the named index.
type BatchQuery struct {
	Index string
	Eps   float64
	K     int
	Query []float64
}

// BatchResult is one query's outcome. Exactly one of Err set / results
// valid: when Err is nil, Matches is sorted by (sequence, start, end) and
// Stats carries that item's work counters.
type BatchResult struct {
	Matches []seqdb.Match
	Stats   seqdb.SearchStats
	Err     error
}

// Batch runs many queries in one round-trip and returns one result per
// query, in request order. An individual query's failure lands in its
// result's Err; Batch itself fails only when the whole batch did
// (transport, overload, deadline, unknown DB). The returned stats are the
// batch-wide aggregate the server measured.
func (c *Client) Batch(ctx context.Context, db string, queries []BatchQuery, opts seqdb.SearchOptions) ([]BatchResult, seqdb.SearchStats, error) {
	var agg seqdb.SearchStats
	items := make([]wire.BatchItem, len(queries))
	for i, q := range queries {
		if q.K < 0 { // the wire carries K as a uint32
			return nil, agg, fmt.Errorf("client: batch query %d: negative k", i)
		}
		op := wire.BatchOpSearch
		if q.K > 0 {
			op = wire.BatchOpKNN
		}
		items[i] = wire.BatchItem{Op: op, Index: q.Index, Eps: q.Eps, K: q.K, Query: q.Query}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	hint, err := c.begin(ctx)
	if err != nil {
		return nil, agg, err
	}
	req := wire.BatchReq{DB: db, Timeout: hint, Parallelism: opts.Parallelism, Items: items}
	if err := c.send(ctx, wire.TBatch, req.Encode(nil)); err != nil {
		return nil, agg, err
	}

	results := make([]BatchResult, len(queries))
	settled := make([]bool, len(queries))
	for {
		t, body, err := wire.ReadFrame(c.br)
		if err != nil {
			return nil, agg, c.fail(ctx, err)
		}
		switch t {
		case wire.TBatchMatch:
			bm, err := wire.DecodeBatchMatch(body)
			if err != nil {
				return nil, agg, c.fail(ctx, err)
			}
			if bm.ID < 0 || bm.ID >= len(results) {
				return nil, agg, c.fail(ctx, fmt.Errorf("batch match for unknown item %d", bm.ID))
			}
			results[bm.ID].Matches = append(results[bm.ID].Matches,
				seqdb.Match{SeqID: bm.SeqID, Seq: bm.Seq, Start: bm.Start, End: bm.End, Distance: bm.Distance})
		case wire.TBatchItemDone:
			bd, err := wire.DecodeBatchItemDone(body)
			if err != nil {
				return nil, agg, c.fail(ctx, err)
			}
			if bd.ID < 0 || bd.ID >= len(results) {
				return nil, agg, c.fail(ctx, fmt.Errorf("batch done for unknown item %d", bd.ID))
			}
			results[bd.ID].Stats = bd.Stats
			settled[bd.ID] = true
		case wire.TBatchItemError:
			be, err := wire.DecodeBatchItemError(body)
			if err != nil {
				return nil, agg, c.fail(ctx, err)
			}
			if be.ID < 0 || be.ID >= len(results) {
				return nil, agg, c.fail(ctx, fmt.Errorf("batch error for unknown item %d", be.ID))
			}
			results[be.ID].Err = &wire.Error{Code: be.Code, Msg: be.Msg}
			settled[be.ID] = true
		case wire.TDone:
			d, err := wire.DecodeDone(body)
			if err != nil {
				return nil, agg, c.fail(ctx, err)
			}
			c.finish()
			for i, ok := range settled {
				if !ok && results[i].Err == nil {
					results[i].Err = fmt.Errorf("client: batch item %d never settled", i)
				}
			}
			// An unsharded server streams range-search answers in traversal
			// order; normalize every item to the (sequence, start, end)
			// order the in-process API returns. KNN items arrive already
			// sorted, so re-sorting them is a deterministic no-op.
			for i := range results {
				sortMatches(results[i].Matches)
			}
			return results, d.Stats, nil
		case wire.TError:
			e, err := wire.DecodeError(body)
			if err != nil {
				return nil, agg, c.fail(ctx, err)
			}
			c.finish()
			return nil, agg, e
		default:
			return nil, agg, c.fail(ctx, fmt.Errorf("unexpected frame type %#x in batch stream", t))
		}
	}
}

// Shards returns the shard topology of a mounted DB: each shard's slice of
// the global sequence numbering. An unsharded DB reports a single range.
func (c *Client) Shards(ctx context.Context, db string) ([]seqdb.ShardRange, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, err := c.begin(ctx); err != nil {
		return nil, err
	}
	req := wire.ShardsReq{DB: db}
	if err := c.send(ctx, wire.TShards, req.Encode(nil)); err != nil {
		return nil, err
	}
	t, body, err := wire.ReadFrame(c.br)
	if err != nil {
		return nil, c.fail(ctx, err)
	}
	switch t {
	case wire.TShardsResp:
		resp, err := wire.DecodeShardsResp(body)
		if err != nil {
			return nil, c.fail(ctx, err)
		}
		c.finish()
		out := make([]seqdb.ShardRange, len(resp.Ranges))
		for i, sr := range resp.Ranges {
			out[i] = seqdb.ShardRange{Start: sr.Start, Count: sr.Count}
		}
		return out, nil
	case wire.TError:
		e, err := wire.DecodeError(body)
		if err != nil {
			return nil, c.fail(ctx, err)
		}
		c.finish()
		return nil, e
	}
	return nil, c.fail(ctx, fmt.Errorf("unexpected frame type %#x", t))
}
