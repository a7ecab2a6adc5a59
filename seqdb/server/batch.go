package server

import (
	"bufio"
	"errors"
	"fmt"
	"net"

	"twsearch/internal/wire"
	"twsearch/seqdb"
)

// handleBatch runs one protocol-v4 batch request: many queries against one
// database, answered as a multiplexed stream in which every frame names the
// item it belongs to. The whole batch holds one admission slot and runs
// under one request context, so a batch of N queries costs the client one
// round-trip and the server one scheduling decision.
//
// Items run in request order. An individual item's failure (unknown index,
// bad op) is a TBatchItemError for that item and the batch continues; a
// deadline or shutdown ends the whole batch with a TError, since every
// remaining item would fail the same way. The terminating TDone carries the
// batch-wide aggregate of the per-item work counters.
func (s *Server) handleBatch(conn net.Conn, bw *bufio.Writer, body []byte) (reqResult, error) {
	res := reqResult{op: "batch"}
	req, err := wire.DecodeBatchReq(body)
	if err != nil {
		res.err = &wire.Error{Code: wire.CodeBadRequest, Msg: err.Error()}
		return res, writeError(bw, res.err)
	}
	res.db = req.DB
	db, err := s.lookupDB(req.DB)
	if err != nil {
		res.err = err
		return res, writeError(bw, err)
	}
	release, ok := s.admit()
	if !ok {
		res.err = wire.ErrOverloaded
		return res, writeError(bw, res.err)
	}
	defer release()
	if s.testHookAdmitted != nil {
		s.testHookAdmitted()
	}
	ctx, cleanup := s.requestCtx(conn, req.Timeout)
	defer cleanup()

	var agg seqdb.SearchStats
	buf := make([]byte, 0, 256)
	for id, item := range req.Items {
		var stats seqdb.SearchStats
		var itemErr error
		switch item.Op {
		case wire.BatchOpSearch:
			var ioErr error
			stats, itemErr = db.SearchVisitWith(ctx, item.Index, item.Query, item.Eps, func(m seqdb.Match) bool {
				buf = buf[:0]
				bm := wire.BatchMatch{ID: id, SeqID: m.SeqID, Seq: m.Seq, Start: m.Start, End: m.End, Distance: m.Distance}
				buf = bm.Encode(buf)
				if err := wire.WriteFrame(bw, wire.TBatchMatch, buf); err != nil {
					ioErr = err
					return false
				}
				res.matches++
				return true
			}, seqdb.SearchOptions{})
			if ioErr != nil {
				res.stats, res.counted = agg, true
				return res, ioErr
			}
		case wire.BatchOpKNN:
			var ms []seqdb.Match
			ms, stats, itemErr = db.SearchKNNWith(ctx, item.Index, item.Query, item.K, seqdb.SearchOptions{})
			if itemErr == nil {
				for _, m := range ms {
					buf = buf[:0]
					bm := wire.BatchMatch{ID: id, SeqID: m.SeqID, Seq: m.Seq, Start: m.Start, End: m.End, Distance: m.Distance}
					buf = bm.Encode(buf)
					if err := wire.WriteFrame(bw, wire.TBatchMatch, buf); err != nil {
						res.stats, res.counted = agg, true
						return res, err
					}
					res.matches++
				}
			}
		default:
			itemErr = &wire.Error{Code: wire.CodeBadRequest, Msg: fmt.Sprintf("unknown batch op %#x", item.Op)}
		}
		agg.Add(stats)
		if itemErr != nil {
			werr := classify(itemErr)
			var we *wire.Error
			if !errors.As(werr, &we) {
				we = &wire.Error{Code: wire.CodeInternal, Msg: werr.Error()}
			}
			if we.Code == wire.CodeDeadline || we.Code == wire.CodeShutdown {
				res.err = we
				res.stats, res.counted = agg, true
				return res, writeError(bw, we)
			}
			bie := wire.BatchItemError{ID: id, Code: we.Code, Msg: we.Msg}
			if err := wire.WriteFrame(bw, wire.TBatchItemError, bie.Encode(nil)); err != nil {
				res.stats, res.counted = agg, true
				return res, err
			}
			continue
		}
		bid := wire.BatchItemDone{ID: id, Stats: stats}
		if err := wire.WriteFrame(bw, wire.TBatchItemDone, bid.Encode(nil)); err != nil {
			res.stats, res.counted = agg, true
			return res, err
		}
	}
	res.stats, res.counted = agg, true
	done := wire.Done{Stats: agg}
	return res, wire.WriteFrame(bw, wire.TDone, done.Encode(nil))
}

// handleShards answers the protocol-v4 topology query: which slice of the
// global sequence numbering each shard of the database holds. An unsharded
// database answers with a single range.
func (s *Server) handleShards(bw *bufio.Writer, body []byte) (reqResult, error) {
	res := reqResult{op: "shards"}
	req, err := wire.DecodeShardsReq(body)
	if err != nil {
		res.err = &wire.Error{Code: wire.CodeBadRequest, Msg: err.Error()}
		return res, writeError(bw, res.err)
	}
	res.db = req.DB
	db, err := s.lookupDB(req.DB)
	if err != nil {
		res.err = err
		return res, writeError(bw, err)
	}
	var resp wire.ShardsResp
	for _, r := range db.ShardRanges() {
		resp.Ranges = append(resp.Ranges, wire.ShardRange{Start: r.Start, Count: r.Count})
	}
	return res, wire.WriteFrame(bw, wire.TShardsResp, resp.Encode(nil))
}
