package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"time"

	"twsearch/internal/core"
	"twsearch/internal/sequence"
)

// SearchReq asks for a range search through an index of the named DB.
// Timeout, when positive, is the client's deadline hint; the server applies
// the tighter of this and its own per-search ceiling.
type SearchReq struct {
	DB      string
	Index   string
	Eps     float64
	Timeout time.Duration
	Query   []float64
}

// Encode appends the request body to b.
func (m *SearchReq) Encode(b []byte) []byte {
	b = appendString(b, m.DB)
	b = appendString(b, m.Index)
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(m.Eps))
	b = binary.LittleEndian.AppendUint64(b, uint64(m.Timeout))
	return appendFloats(b, m.Query)
}

// DecodeSearchReq parses a TSearch body.
func DecodeSearchReq(body []byte) (SearchReq, error) {
	r := NewReader(body)
	m := SearchReq{
		DB:      r.String(),
		Index:   r.String(),
		Eps:     r.F64(),
		Timeout: time.Duration(r.I64()),
	}
	m.Query = r.Floats()
	return m, r.Err()
}

// KNNReq asks for the K nearest subsequences through an index. Timeout is
// the same per-request hint as SearchReq's.
type KNNReq struct {
	DB      string
	Index   string
	K       int
	Timeout time.Duration
	Query   []float64
}

// Encode appends the request body to b.
func (m *KNNReq) Encode(b []byte) []byte {
	b = appendString(b, m.DB)
	b = appendString(b, m.Index)
	b = binary.LittleEndian.AppendUint32(b, uint32(m.K))
	b = binary.LittleEndian.AppendUint64(b, uint64(m.Timeout))
	return appendFloats(b, m.Query)
}

// DecodeKNNReq parses a TKNN body, refusing a K no sender can mean. K
// travels as a uint32, so a negative int on the sending side arrives above
// math.MaxInt32 (or negative where int is 32 bits) and would pass every
// k <= 0 check downstream; a k-NN request also needs at least one neighbor.
func DecodeKNNReq(body []byte) (KNNReq, error) {
	r := NewReader(body)
	m := KNNReq{
		DB:      r.String(),
		Index:   r.String(),
		K:       int(r.U32()),
		Timeout: time.Duration(r.I64()),
	}
	m.Query = r.Floats()
	if err := r.Err(); err != nil {
		return m, err
	}
	if m.K <= 0 || m.K > math.MaxInt32 {
		return m, fmt.Errorf("wire: bad frame: k = %d (k must be positive)", uint32(m.K))
	}
	return m, nil
}

// ScanReq asks for the exhaustive sequential-scan baseline.
type ScanReq struct {
	DB      string
	Eps     float64
	Timeout time.Duration
	Query   []float64
}

// Encode appends the request body to b.
func (m *ScanReq) Encode(b []byte) []byte {
	b = appendString(b, m.DB)
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(m.Eps))
	b = binary.LittleEndian.AppendUint64(b, uint64(m.Timeout))
	return appendFloats(b, m.Query)
}

// DecodeScanReq parses a TScan body.
func DecodeScanReq(body []byte) (ScanReq, error) {
	r := NewReader(body)
	m := ScanReq{
		DB:      r.String(),
		Eps:     r.F64(),
		Timeout: time.Duration(r.I64()),
	}
	m.Query = r.Floats()
	return m, r.Err()
}

// StatsReq asks for a DB's dataset summary; ListIndexesReq for its open
// indexes. Both carry only the DB name.
type StatsReq struct{ DB string }

// Encode appends the request body to b.
func (m *StatsReq) Encode(b []byte) []byte { return appendString(b, m.DB) }

// DecodeStatsReq parses a TStats body.
func DecodeStatsReq(body []byte) (StatsReq, error) {
	r := NewReader(body)
	m := StatsReq{DB: r.String()}
	return m, r.Err()
}

// ListIndexesReq asks for the open indexes of a DB.
type ListIndexesReq struct{ DB string }

// Encode appends the request body to b.
func (m *ListIndexesReq) Encode(b []byte) []byte { return appendString(b, m.DB) }

// DecodeListIndexesReq parses a TListIndexes body.
func DecodeListIndexesReq(body []byte) (ListIndexesReq, error) {
	r := NewReader(body)
	m := ListIndexesReq{DB: r.String()}
	return m, r.Err()
}

// Match is one streamed answer: a record of a TMatch frame's batch
// (MatchBatch). The float64 distance travels as bits, so a streamed answer
// set is byte-identical to the in-process one.
type Match struct {
	SeqID    string
	Seq      int
	Start    int
	End      int
	Distance float64
}

// Encode appends the match record to b.
func (m *Match) Encode(b []byte) []byte {
	b = appendString(b, m.SeqID)
	b = binary.LittleEndian.AppendUint32(b, uint32(m.Seq))
	b = binary.LittleEndian.AppendUint32(b, uint32(m.Start))
	b = binary.LittleEndian.AppendUint32(b, uint32(m.End))
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(m.Distance))
}

// DecodeMatch parses exactly one match record.
func DecodeMatch(body []byte) (Match, error) {
	r := NewReader(body)
	m := Match{
		SeqID: r.String(),
		Seq:   int(r.U32()),
		Start: int(r.U32()),
		End:   int(r.U32()),
	}
	m.Distance = r.F64()
	return m, r.Err()
}

// Done terminates a match stream, carrying the search's work counters.
type Done struct{ Stats core.SearchStats }

// Encode appends the done body to b.
func (m *Done) Encode(b []byte) []byte {
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

// DecodeDone parses a TDone body.
func DecodeDone(body []byte) (Done, error) {
	r := NewReader(body)
	var m Done
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

// EncodeError appends a TError body for err to b.
func EncodeError(b []byte, err error) []byte {
	b = append(b, byte(CodeOf(err)))
	// A typed *Error ships its bare message: Error() adds the daemon
	// prefix and code suffix, which the receiving side adds again.
	var we *Error
	var answered []int
	if errors.As(err, &we) {
		b = appendString(b, we.Msg)
		answered = we.Answered
	} else {
		b = appendString(b, err.Error())
	}
	b = binary.LittleEndian.AppendUint32(b, uint32(len(answered)))
	for _, s := range answered {
		b = binary.LittleEndian.AppendUint32(b, uint32(s))
	}
	return b
}

// DecodeError parses a TError body into the typed *Error.
func DecodeError(body []byte) (*Error, error) {
	r := NewReader(body)
	e := &Error{Code: Code(r.U8()), Msg: r.String()}
	n := r.U32()
	for i := uint32(0); i < n && r.err == nil; i++ {
		e.Answered = append(e.Answered, int(r.U32()))
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	return e, nil
}

// PoolShard is one buffer-pool shard's counters in a StatsResp.
type PoolShard struct {
	Hits      uint64
	Misses    uint64
	Evictions uint64
}

// PoolInfo reports one index's buffer-pool shards.
type PoolInfo struct {
	Index  string
	Shards []PoolShard
}

// StatsResp answers TStats with the dataset's summary statistics and each
// open index's buffer-pool shard counters.
type StatsResp struct {
	Stats sequence.Stats
	Pools []PoolInfo
}

// Encode appends the stats body to b.
func (m *StatsResp) Encode(b []byte) []byte {
	s := m.Stats
	b = binary.LittleEndian.AppendUint64(b, uint64(s.Sequences))
	b = binary.LittleEndian.AppendUint64(b, uint64(s.TotalElements))
	b = binary.LittleEndian.AppendUint64(b, uint64(s.MinLen))
	b = binary.LittleEndian.AppendUint64(b, uint64(s.MaxLen))
	for _, v := range []float64{s.AvgLen, s.MinValue, s.MaxValue, s.MeanValue, s.StdDev} {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	b = binary.LittleEndian.AppendUint32(b, uint32(len(m.Pools)))
	for _, p := range m.Pools {
		b = appendString(b, p.Index)
		b = binary.LittleEndian.AppendUint32(b, uint32(len(p.Shards)))
		for _, sh := range p.Shards {
			b = binary.LittleEndian.AppendUint64(b, sh.Hits)
			b = binary.LittleEndian.AppendUint64(b, sh.Misses)
			b = binary.LittleEndian.AppendUint64(b, sh.Evictions)
		}
	}
	return b
}

// DecodeStatsResp parses a TStatsResp body.
func DecodeStatsResp(body []byte) (StatsResp, error) {
	r := NewReader(body)
	var m StatsResp
	m.Stats.Sequences = int(r.I64())
	m.Stats.TotalElements = int(r.I64())
	m.Stats.MinLen = int(r.I64())
	m.Stats.MaxLen = int(r.I64())
	m.Stats.AvgLen = r.F64()
	m.Stats.MinValue = r.F64()
	m.Stats.MaxValue = r.F64()
	m.Stats.MeanValue = r.F64()
	m.Stats.StdDev = r.F64()
	nPools := r.U32()
	for i := uint32(0); i < nPools && r.err == nil; i++ {
		p := PoolInfo{Index: r.String()}
		nShards := r.U32()
		for j := uint32(0); j < nShards && r.err == nil; j++ {
			p.Shards = append(p.Shards, PoolShard{
				Hits:      r.U64(),
				Misses:    r.U64(),
				Evictions: r.U64(),
			})
		}
		m.Pools = append(m.Pools, p)
	}
	return m, r.Err()
}

// IndexInfo describes one open index in an IndexesResp. It mirrors
// seqdb.IndexInfo flattened to wire-stable fields.
type IndexInfo struct {
	Name         string
	Method       string
	Categories   int
	Sparse       bool
	Window       int
	MinAnswerLen int
	SizeBytes    int64
	Leaves       uint64
	Nodes        uint64
	// Encoding is the tree's node record encoding (1 = v1, 2 = v2).
	Encoding  uint8
	PoolPages int
}

// IndexesResp answers TListIndexes.
type IndexesResp struct{ Indexes []IndexInfo }

// Encode appends the indexes body to b.
func (m *IndexesResp) Encode(b []byte) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(len(m.Indexes)))
	for _, ix := range m.Indexes {
		b = appendString(b, ix.Name)
		b = appendString(b, ix.Method)
		b = binary.LittleEndian.AppendUint32(b, uint32(ix.Categories))
		if ix.Sparse {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
		b = binary.LittleEndian.AppendUint64(b, uint64(int64(ix.Window)))
		b = binary.LittleEndian.AppendUint32(b, uint32(ix.MinAnswerLen))
		b = binary.LittleEndian.AppendUint64(b, uint64(ix.SizeBytes))
		b = binary.LittleEndian.AppendUint64(b, ix.Leaves)
		b = binary.LittleEndian.AppendUint64(b, ix.Nodes)
		b = append(b, ix.Encoding)
		b = binary.LittleEndian.AppendUint32(b, uint32(ix.PoolPages))
	}
	return b
}

// DecodeIndexesResp parses a TIndexes body.
func DecodeIndexesResp(body []byte) (IndexesResp, error) {
	r := NewReader(body)
	n := r.U32()
	var m IndexesResp
	for i := uint32(0); i < n && r.err == nil; i++ {
		ix := IndexInfo{
			Name:       r.String(),
			Method:     r.String(),
			Categories: int(r.U32()),
			Sparse:     r.Bool(),
			Window:     int(r.I64()),
		}
		ix.MinAnswerLen = int(r.U32())
		ix.SizeBytes = r.I64()
		ix.Leaves = r.U64()
		ix.Nodes = r.U64()
		ix.Encoding = r.U8()
		ix.PoolPages = int(r.U32())
		m.Indexes = append(m.Indexes, ix)
	}
	return m, r.Err()
}
