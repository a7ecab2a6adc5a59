package wire

// The batch RPC: one TBatch frame carries many queries, and the server
// answers with a multiplexed stream — every response frame names the item
// it belongs to, so answers for different items may interleave. The stream
// ends with exactly one TDone (aggregate work counters for the whole batch)
// or one TError (the batch as a whole failed: overload, deadline, malformed
// frame). An individual item's failure is a TBatchItemError for that item;
// the rest of the batch still runs.

import (
	"encoding/binary"
	"math"
	"time"

	"twsearch/internal/core"
)

// Batch item operations.
const (
	BatchOpSearch byte = 1 // range search: Eps is the threshold, K ignored
	BatchOpKNN    byte = 2 // k-nearest-neighbor: K is the count, Eps ignored
)

// BatchItem is one query of a batch: a range search or a k-NN search
// through the named index.
type BatchItem struct {
	Op    byte
	Index string
	Eps   float64
	K     int
	Query []float64
}

// BatchReq asks for many searches in one round-trip. Timeout and
// Parallelism carry the same per-request semantics as SearchReq, applied
// once to the whole batch: one deadline and one admission slot cover all
// items.
type BatchReq struct {
	DB          string
	Timeout     time.Duration
	Parallelism int
	Items       []BatchItem
}

// Encode appends the request body to b.
func (m *BatchReq) Encode(b []byte) []byte {
	b = appendString(b, m.DB)
	b = binary.LittleEndian.AppendUint64(b, uint64(m.Timeout))
	b = binary.LittleEndian.AppendUint32(b, uint32(m.Parallelism))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(m.Items)))
	for _, it := range m.Items {
		b = append(b, it.Op)
		b = appendString(b, it.Index)
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(it.Eps))
		b = binary.LittleEndian.AppendUint32(b, uint32(it.K))
		b = appendFloats(b, it.Query)
	}
	return b
}

// DecodeBatchReq parses a TBatch body, refusing an item whose K checkK
// rejects.
func DecodeBatchReq(body []byte) (BatchReq, error) {
	r := NewReader(body)
	var m BatchReq
	m.DB = r.String()
	m.Timeout = time.Duration(r.I64())
	m.Parallelism = int(r.U32())
	n := r.U32()
	for i := uint32(0); i < n && r.err == nil; i++ {
		it := BatchItem{
			Op:    r.U8(),
			Index: r.String(),
			Eps:   r.F64(),
			K:     int(r.U32()),
		}
		it.Query = r.Floats()
		m.Items = append(m.Items, it)
	}
	if err := r.Err(); err != nil {
		return m, err
	}
	for _, it := range m.Items {
		if err := checkK(it.K, it.Op == BatchOpKNN); err != nil {
			return m, err
		}
	}
	return m, nil
}

// BatchMatch is one streamed answer of one batch item: a Match plus the
// item's index in the batch.
type BatchMatch struct {
	ID       int
	SeqID    string
	Seq      int
	Start    int
	End      int
	Distance float64
}

// Encode appends the match body to b.
func (m *BatchMatch) Encode(b []byte) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(m.ID))
	b = appendString(b, m.SeqID)
	b = binary.LittleEndian.AppendUint32(b, uint32(m.Seq))
	b = binary.LittleEndian.AppendUint32(b, uint32(m.Start))
	b = binary.LittleEndian.AppendUint32(b, uint32(m.End))
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(m.Distance))
}

// DecodeBatchMatch parses a TBatchMatch body.
func DecodeBatchMatch(body []byte) (BatchMatch, error) {
	r := NewReader(body)
	var m BatchMatch
	m.ID = int(r.U32())
	m.SeqID = r.String()
	m.Seq = int(r.U32())
	m.Start = int(r.U32())
	m.End = int(r.U32())
	m.Distance = r.F64()
	return m, r.Err()
}

// BatchItemDone reports one batch item's completion, with that item's own
// work counters; the terminating TDone carries the batch-wide aggregate.
type BatchItemDone struct {
	ID    int
	Stats core.SearchStats
}

// Encode appends the body to b.
func (m *BatchItemDone) Encode(b []byte) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(m.ID))
	s := m.Stats
	for _, v := range []uint64{
		s.NodesVisited, s.FilterCells, s.PostCells, s.Candidates,
		s.FalseAlarms, s.Answers, s.PagesRead, s.PoolHits, s.PoolMisses,
		s.EnvelopePruned, s.LBCells,
	} {
		b = binary.LittleEndian.AppendUint64(b, v)
	}
	return binary.LittleEndian.AppendUint64(b, uint64(s.Elapsed))
}

// DecodeBatchItemDone parses a TBatchItemDone body.
func DecodeBatchItemDone(body []byte) (BatchItemDone, error) {
	r := NewReader(body)
	var m BatchItemDone
	m.ID = int(r.U32())
	m.Stats.NodesVisited = r.U64()
	m.Stats.FilterCells = r.U64()
	m.Stats.PostCells = r.U64()
	m.Stats.Candidates = r.U64()
	m.Stats.FalseAlarms = r.U64()
	m.Stats.Answers = r.U64()
	m.Stats.PagesRead = r.U64()
	m.Stats.PoolHits = r.U64()
	m.Stats.PoolMisses = r.U64()
	m.Stats.EnvelopePruned = r.U64()
	m.Stats.LBCells = r.U64()
	m.Stats.Elapsed = time.Duration(r.I64())
	return m, r.Err()
}

// BatchItemError reports one batch item's failure; the rest of the batch
// still runs.
type BatchItemError struct {
	ID   int
	Code Code
	Msg  string
}

// Encode appends the body to b.
func (m *BatchItemError) Encode(b []byte) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(m.ID))
	b = append(b, byte(m.Code))
	return appendString(b, m.Msg)
}

// DecodeBatchItemError parses a TBatchItemError body.
func DecodeBatchItemError(body []byte) (BatchItemError, error) {
	r := NewReader(body)
	var m BatchItemError
	m.ID = int(r.U32())
	m.Code = Code(r.U8())
	m.Msg = r.String()
	return m, r.Err()
}

// ShardsReq asks for a DB's shard topology: how many shards serve it and
// which slice of the global sequence numbering each holds. An unsharded DB
// answers with one range covering everything.
type ShardsReq struct{ DB string }

// Encode appends the request body to b.
func (m *ShardsReq) Encode(b []byte) []byte { return appendString(b, m.DB) }

// DecodeShardsReq parses a TShards body.
func DecodeShardsReq(body []byte) (ShardsReq, error) {
	r := NewReader(body)
	m := ShardsReq{DB: r.String()}
	return m, r.Err()
}

// ShardRange is one shard's slice of the global sequence numbering in a
// ShardsResp.
type ShardRange struct {
	Start int
	Count int
}

// ShardsResp answers TShards.
type ShardsResp struct{ Ranges []ShardRange }

// Encode appends the body to b.
func (m *ShardsResp) Encode(b []byte) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(len(m.Ranges)))
	for _, sr := range m.Ranges {
		b = binary.LittleEndian.AppendUint64(b, uint64(sr.Start))
		b = binary.LittleEndian.AppendUint64(b, uint64(sr.Count))
	}
	return b
}

// DecodeShardsResp parses a TShardsResp body.
func DecodeShardsResp(body []byte) (ShardsResp, error) {
	r := NewReader(body)
	var m ShardsResp
	n := r.U32()
	for i := uint32(0); i < n && r.err == nil; i++ {
		m.Ranges = append(m.Ranges, ShardRange{
			Start: int(r.I64()),
			Count: int(r.I64()),
		})
	}
	return m, r.Err()
}
