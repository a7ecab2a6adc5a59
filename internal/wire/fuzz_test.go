package wire

import (
	"bytes"
	"testing"
	"time"

	"twsearch/internal/core"
)

// FuzzFrameRoundTrip is the dynamic counterpart to the wireconform static
// analyzer: for every message type, any body the decoder accepts must
// re-encode to the identical bytes. Because Reader rejects trailing bytes
// and non-canonical booleans, every field layout is bijective on valid
// frames — a skew between an encode/decode pair (wrong width, wrong order)
// shows up as a byte diff.
func FuzzFrameRoundTrip(f *testing.F) {
	sreq := SearchReq{DB: "db", Index: "ix", Eps: 0.5, Timeout: time.Second,
		Parallelism: 4, Query: []float64{1, 2, 3}}
	kreq := KNNReq{DB: "db", Index: "ix", K: 7, Timeout: time.Second,
		Parallelism: 2, Query: []float64{4, 5}}
	screq := ScanReq{DB: "db", Eps: 1.25, Query: []float64{6}}
	match := Match{SeqID: "s", Seq: 1, Start: 2, End: 9, Distance: 0.75}
	done := Done{Stats: core.SearchStats{NodesVisited: 3, Answers: 1, Elapsed: time.Millisecond}}
	stats := StatsResp{Pools: []PoolInfo{{Index: "ix", Shards: []PoolShard{{Hits: 1}}}}}
	idx := IndexesResp{Indexes: []IndexInfo{{Name: "ix", Method: "paa", Sparse: true, Window: -1}}}
	breq := BatchReq{DB: "db", Timeout: time.Second, Parallelism: 2, Items: []BatchItem{
		{Op: BatchOpSearch, Index: "ix", Eps: 0.5, Query: []float64{1, 2}},
		{Op: BatchOpKNN, Index: "ix", K: 3, Query: []float64{4}},
	}}
	bmatch := BatchMatch{ID: 1, SeqID: "s", Seq: 2, Start: 3, End: 9, Distance: 0.5}
	bdone := BatchItemDone{ID: 1, Stats: core.SearchStats{Answers: 2, Elapsed: time.Millisecond}}
	berr := BatchItemError{ID: 1, Code: CodeNotFound, Msg: "no such index"}
	shresp := ShardsResp{Ranges: []ShardRange{{Start: 0, Count: 3}, {Start: 3, Count: 2}}}
	partial := &Error{Code: CodeShardUnavailable, Msg: "shard 1 lost", Answered: []int{0, 2}}

	// One well-formed body per frame type.
	f.Add(TSearch, sreq.Encode(nil))
	f.Add(TKNN, kreq.Encode(nil))
	f.Add(TScan, screq.Encode(nil))
	f.Add(TStats, (&StatsReq{DB: "db"}).Encode(nil))
	f.Add(TListIndexes, (&ListIndexesReq{DB: "db"}).Encode(nil))
	f.Add(TMatch, match.Encode(nil))
	f.Add(TDone, done.Encode(nil))
	f.Add(TError, EncodeError(nil, ErrOverloaded))
	f.Add(TError, EncodeError(nil, partial))
	f.Add(TStatsResp, stats.Encode(nil))
	f.Add(TIndexes, idx.Encode(nil))
	f.Add(TBatch, breq.Encode(nil))
	f.Add(TBatchMatch, bmatch.Encode(nil))
	f.Add(TBatchItemDone, bdone.Encode(nil))
	f.Add(TBatchItemError, berr.Encode(nil))
	f.Add(TShards, (&ShardsReq{DB: "db"}).Encode(nil))
	f.Add(TShardsResp, shresp.Encode(nil))
	// Bodies one edit away from well-formed that the decoders must refuse:
	// the layouts of retired protocol versions and the k-NN counts no sender
	// can mean. They start the fuzzer at the boundary between accepted and
	// rejected frames.
	f.Add(TSearch, oldSearchReq(&sreq))
	f.Add(TKNN, (&KNNReq{DB: "db", Index: "ix", K: -1, Query: []float64{4}}).Encode(nil))
	f.Add(TError, oldError(partial))
	f.Add(TBatch, (&BatchReq{DB: "db", Items: []BatchItem{{Op: BatchOpKNN, Index: "ix", Query: []float64{4}}}}).Encode(nil))
	f.Add(TShardsResp, []byte{})

	f.Fuzz(func(t *testing.T, typ byte, body []byte) {
		var reenc []byte
		var err error
		switch typ {
		case TSearch:
			var m SearchReq
			if m, err = DecodeSearchReq(body); err == nil {
				reenc = m.Encode(nil)
			}
		case TKNN:
			var m KNNReq
			if m, err = DecodeKNNReq(body); err == nil {
				reenc = m.Encode(nil)
			}
		case TScan:
			var m ScanReq
			if m, err = DecodeScanReq(body); err == nil {
				reenc = m.Encode(nil)
			}
		case TStats:
			var m StatsReq
			if m, err = DecodeStatsReq(body); err == nil {
				reenc = m.Encode(nil)
			}
		case TListIndexes:
			var m ListIndexesReq
			if m, err = DecodeListIndexesReq(body); err == nil {
				reenc = m.Encode(nil)
			}
		case TMatch:
			var m Match
			if m, err = DecodeMatch(body); err == nil {
				reenc = m.Encode(nil)
			}
		case TDone:
			var m Done
			if m, err = DecodeDone(body); err == nil {
				reenc = m.Encode(nil)
			}
		case TError:
			var e *Error
			if e, err = DecodeError(body); err == nil {
				reenc = EncodeError(nil, e)
			}
		case TStatsResp:
			var m StatsResp
			if m, err = DecodeStatsResp(body); err == nil {
				reenc = m.Encode(nil)
			}
		case TIndexes:
			var m IndexesResp
			if m, err = DecodeIndexesResp(body); err == nil {
				reenc = m.Encode(nil)
			}
		case TBatch:
			var m BatchReq
			if m, err = DecodeBatchReq(body); err == nil {
				reenc = m.Encode(nil)
			}
		case TBatchMatch:
			var m BatchMatch
			if m, err = DecodeBatchMatch(body); err == nil {
				reenc = m.Encode(nil)
			}
		case TBatchItemDone:
			var m BatchItemDone
			if m, err = DecodeBatchItemDone(body); err == nil {
				reenc = m.Encode(nil)
			}
		case TBatchItemError:
			var m BatchItemError
			if m, err = DecodeBatchItemError(body); err == nil {
				reenc = m.Encode(nil)
			}
		case TShards:
			var m ShardsReq
			if m, err = DecodeShardsReq(body); err == nil {
				reenc = m.Encode(nil)
			}
		case TShardsResp:
			var m ShardsResp
			if m, err = DecodeShardsResp(body); err == nil {
				reenc = m.Encode(nil)
			}
		default:
			return
		}
		if err != nil {
			return // malformed input rejected: nothing to compare
		}
		if !bytes.Equal(reenc, body) {
			t.Fatalf("type %#x: decode∘encode not identity:\n in:  %x\n out: %x",
				typ, body, reenc)
		}
	})
}

// oldSearchReq lays m out as protocol version 2 did: the current body
// without the 4-byte parallelism word in front of the query.
func oldSearchReq(m *SearchReq) []byte {
	b := m.Encode(nil)
	at := len(b) - (4 + 8*len(m.Query)) - 4
	return append(b[:at:at], b[at+4:]...)
}

// oldError lays e out as protocol versions before 4 did: code and message,
// no answered-shards list.
func oldError(e *Error) []byte {
	return appendString([]byte{byte(e.Code)}, e.Msg)
}
