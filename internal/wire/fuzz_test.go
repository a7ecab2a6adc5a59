package wire

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"
	"time"

	"twsearch/internal/core"
	"twsearch/internal/sequence"
)

// FuzzFrameRoundTrip holds every message type to one property: any body
// the decoder accepts must re-encode to the identical bytes. Because
// Reader rejects trailing bytes and non-canonical booleans, every field
// layout is bijective on valid frames — a skew between an encode/decode
// pair (wrong width, wrong order) shows up as a byte diff.
func FuzzFrameRoundTrip(f *testing.F) {
	sreq := SearchReq{DB: "db", Index: "ix", Eps: 0.5, Timeout: time.Second, Query: []float64{1, 2, 3}}
	kreq := KNNReq{DB: "db", Index: "ix", K: 7, Timeout: time.Second, Query: []float64{4, 5}}
	screq := ScanReq{DB: "db", Eps: 1.25, Query: []float64{6}}
	match := Match{SeqID: "s", Seq: 1, Start: 2, End: 9, Distance: 0.75}
	done := Done{Stats: core.SearchStats{NodesVisited: 3, Answers: 1, Elapsed: time.Millisecond}}
	stats := StatsResp{Pools: []PoolInfo{{Index: "ix", Shards: []PoolShard{{Hits: 1}}}}}
	idx := IndexesResp{Indexes: []IndexInfo{{Name: "ix", Method: "paa", Sparse: true, Window: -1}}}
	partial := &Error{Code: CodeShardUnavailable, Msg: "shard 1 lost", Answered: []int{0, 2}}

	// One well-formed body per frame type.
	f.Add(TSearch, sreq.Encode(nil))
	f.Add(TKNN, kreq.Encode(nil))
	f.Add(TScan, screq.Encode(nil))
	f.Add(TStats, (&StatsReq{DB: "db"}).Encode(nil))
	f.Add(TListIndexes, (&ListIndexesReq{DB: "db"}).Encode(nil))
	f.Add(TMatch, (&MatchBatch{Matches: []Match{match, match, {SeqID: "t", Seq: 2}}}).Encode(nil))
	f.Add(TDone, done.Encode(nil))
	f.Add(TError, EncodeError(nil, ErrOverloaded))
	f.Add(TError, EncodeError(nil, partial))
	f.Add(TStatsResp, stats.Encode(nil))
	f.Add(TIndexes, idx.Encode(nil))
	// Bodies one edit away from well-formed that the decoders must refuse:
	// the layouts of retired protocol versions, the k-NN counts no sender
	// can mean, a non-canonical boolean, an empty body and the broken match
	// batches of badBatches. They start the
	// fuzzer at the boundary between accepted and rejected frames.
	f.Add(TSearch, v5Req(sreq.Encode(nil), len(sreq.Query), 4))
	f.Add(TKNN, v5Req(kreq.Encode(nil), len(kreq.Query), 4))
	f.Add(TKNN, (&KNNReq{DB: "db", Index: "ix", K: -1, Query: []float64{4}}).Encode(nil))
	f.Add(TKNN, (&KNNReq{DB: "db", Index: "ix", Query: []float64{4}}).Encode(nil))
	f.Add(TError, oldError(partial))
	sparse := (&IndexesResp{Indexes: []IndexInfo{{}}}).Encode(nil)
	sparse[16] = 2 // count, name, method, categories: the Sparse byte
	f.Add(TIndexes, sparse)
	f.Add(TStatsResp, []byte{})
	for _, body := range badBatches() {
		f.Add(TMatch, body)
	}

	// The zero and the extreme value of every message, where a field
	// written only for some values would show; TestRoundTripZeroAndExtreme
	// checks these bodies directly.
	for _, tc := range roundTripCases() {
		f.Add(tc.typ, tc.body)
	}

	f.Fuzz(func(t *testing.T, typ byte, body []byte) {
		codec, ok := codecs[typ]
		if !ok {
			return
		}
		reenc, err := codec(body)
		if err != nil {
			return // malformed input rejected: nothing to compare
		}
		if !bytes.Equal(reenc, body) {
			t.Fatalf("type %#x: decode∘encode not identity:\n in:  %x\n out: %x",
				typ, body, reenc)
		}
	})
}

// codecs maps each frame type to decode-then-encode over its body.
var codecs = map[byte]func(body []byte) ([]byte, error){
	TSearch:      reencode(DecodeSearchReq, (*SearchReq).Encode),
	TKNN:         reencode(DecodeKNNReq, (*KNNReq).Encode),
	TScan:        reencode(DecodeScanReq, (*ScanReq).Encode),
	TStats:       reencode(DecodeStatsReq, (*StatsReq).Encode),
	TListIndexes: reencode(DecodeListIndexesReq, (*ListIndexesReq).Encode),
	TMatch:       reencode(DecodeMatchBatch, (*MatchBatch).Encode),
	TDone:        reencode(DecodeDone, (*Done).Encode),
	TError:       reencode(DecodeError, func(e **Error, b []byte) []byte { return EncodeError(b, *e) }),
	TStatsResp:   reencode(DecodeStatsResp, (*StatsResp).Encode),
	TIndexes:     reencode(DecodeIndexesResp, (*IndexesResp).Encode),
}

func reencode[M any](decode func([]byte) (M, error), encode func(*M, []byte) []byte) func([]byte) ([]byte, error) {
	return func(body []byte) ([]byte, error) {
		m, err := decode(body)
		if err != nil {
			return nil, err
		}
		return encode(&m, nil), nil
	}
}

// roundTripCase is one encoded message and its frame type.
type roundTripCase struct {
	name string
	typ  byte
	body []byte
}

// roundTripCases encodes every message type twice: as its zero value (for
// KNNReq and MatchBatch, the smallest valid one), and
// with every field at a non-zero extreme — the widest unsigned ids,
// negative floats and durations, empty and non-empty strings and slices.
func roundTripCases() []roundTripCase {
	const maxU32 = math.MaxUint32
	stats := core.SearchStats{
		NodesVisited: math.MaxUint64, FilterCells: math.MaxUint64, PostCells: math.MaxUint64,
		Candidates: math.MaxUint64, FalseAlarms: math.MaxUint64, Answers: math.MaxUint64,
		PagesRead: math.MaxUint64, PoolHits: math.MaxUint64, PoolMisses: math.MaxUint64,
		EnvelopePruned: math.MaxUint64, LBCells: math.MaxUint64, Elapsed: math.MinInt64,
	}
	extreme := func(name string, typ byte, body []byte) roundTripCase {
		return roundTripCase{name: name + "/extreme", typ: typ, body: body}
	}
	zero := func(name string, typ byte, body []byte) roundTripCase {
		return roundTripCase{name: name + "/zero", typ: typ, body: body}
	}
	return []roundTripCase{
		zero("SearchReq", TSearch, (&SearchReq{}).Encode(nil)),
		extreme("SearchReq", TSearch, (&SearchReq{DB: "", Index: "ix", Eps: -math.MaxFloat64,
			Timeout: math.MinInt64,
			Query:   []float64{-0.5, math.Inf(-1), math.MaxFloat64}}).Encode(nil)),
		zero("KNNReq", TKNN, (&KNNReq{K: 1}).Encode(nil)),
		extreme("KNNReq", TKNN, (&KNNReq{DB: "db", Index: "", K: math.MaxInt32,
			Timeout: math.MaxInt64, Query: []float64{}}).Encode(nil)),
		zero("ScanReq", TScan, (&ScanReq{}).Encode(nil)),
		extreme("ScanReq", TScan, (&ScanReq{DB: "db", Eps: -1.5, Timeout: -1,
			Query: []float64{-math.SmallestNonzeroFloat64}}).Encode(nil)),
		zero("StatsReq", TStats, (&StatsReq{}).Encode(nil)),
		extreme("StatsReq", TStats, (&StatsReq{DB: "db"}).Encode(nil)),
		zero("ListIndexesReq", TListIndexes, (&ListIndexesReq{}).Encode(nil)),
		extreme("ListIndexesReq", TListIndexes, (&ListIndexesReq{DB: "db"}).Encode(nil)),
		zero("MatchBatch", TMatch, (&MatchBatch{Matches: []Match{{}}}).Encode(nil)),
		extreme("MatchBatch", TMatch, (&MatchBatch{Matches: []Match{
			{SeqID: "s", Seq: maxU32, Start: maxU32, End: maxU32, Distance: -2.25},
			{SeqID: "s", Seq: maxU32, Start: 0, End: maxU32, Distance: math.Inf(1)},
			{},
		}}).Encode(nil)),
		zero("Done", TDone, (&Done{}).Encode(nil)),
		extreme("Done", TDone, (&Done{Stats: stats}).Encode(nil)),
		zero("Error", TError, EncodeError(nil, &Error{})),
		extreme("Error", TError, EncodeError(nil, &Error{Code: math.MaxUint8, Msg: "lost",
			Answered: []int{0, maxU32}})),
		zero("StatsResp", TStatsResp, (&StatsResp{}).Encode(nil)),
		extreme("StatsResp", TStatsResp, (&StatsResp{
			Stats: sequence.Stats{Sequences: math.MaxInt64, TotalElements: math.MinInt64,
				MinLen: -1, MaxLen: math.MaxInt64, AvgLen: -1, MinValue: -math.MaxFloat64,
				MaxValue: -0.5, MeanValue: -1e-300, StdDev: math.Inf(-1)},
			Pools: []PoolInfo{
				{Index: ""},
				{Index: "ix", Shards: []PoolShard{{Hits: math.MaxUint64, Misses: math.MaxUint64, Evictions: math.MaxUint64}}},
			},
		}).Encode(nil)),
		zero("IndexesResp", TIndexes, (&IndexesResp{}).Encode(nil)),
		extreme("IndexesResp", TIndexes, (&IndexesResp{Indexes: []IndexInfo{
			{Name: "", Method: "m", Categories: maxU32, Sparse: true, Window: math.MinInt64,
				MinAnswerLen: maxU32, SizeBytes: math.MinInt64, Leaves: math.MaxUint64, Nodes: math.MaxUint64},
			{},
		}}).Encode(nil)),
	}
}

// TestRoundTripZeroAndExtreme holds every message type to decode∘encode
// being the identity on its zero value and on an extreme value. A field
// whose presence depends on its value — written only when non-zero, say —
// fails here: the decoder reads every field unconditionally, so the zero
// body comes up short or re-encodes to other bytes.
func TestRoundTripZeroAndExtreme(t *testing.T) {
	seen := make(map[byte]int)
	for _, tc := range roundTripCases() {
		seen[tc.typ]++
		reenc, err := codecs[tc.typ](tc.body)
		if err != nil {
			t.Errorf("%s: decoding its own encoding: %v", tc.name, err)
			continue
		}
		if !bytes.Equal(reenc, tc.body) {
			t.Errorf("%s: decode∘encode not identity:\n in:  %x\n out: %x", tc.name, tc.body, reenc)
		}
	}
	for typ := range codecs {
		if seen[typ] != 2 {
			t.Errorf("frame type %#x: %d round-trip cases, want a zero and an extreme one", typ, seen[typ])
		}
	}
}

// v5Req lays a search or k-NN request body out as protocol version 5 did:
// the current body, whose query holds n values, with a 4-byte parallelism
// word in front of the query.
func v5Req(b []byte, n int, parallelism uint32) []byte {
	at := len(b) - (4 + 8*n)
	v5 := binary.LittleEndian.AppendUint32(append([]byte(nil), b[:at]...), parallelism)
	return append(v5, b[at:]...)
}

// oldError lays e out as protocol versions before 4 did: code and message,
// no answered-shards list.
func oldError(e *Error) []byte {
	return appendString([]byte{byte(e.Code)}, e.Msg)
}

// badBatches are TMatch bodies one edit away from a valid batch of two
// records, keyed by what is wrong with them.
func badBatches() map[string][]byte {
	two := (&MatchBatch{Matches: []Match{{SeqID: "s", Start: 1, End: 3}, {SeqID: "s", Start: 2, End: 3}}}).Encode(nil)
	withCount := func(n uint32) []byte {
		return binary.LittleEndian.AppendUint32(nil, n)
	}
	longID := append([]byte(nil), two...)
	binary.LittleEndian.PutUint32(longID[4:], uint32(len(two)))
	return map[string][]byte{
		"count 0":                      withCount(0),
		"count 0 and a record":         append(withCount(0), two[4:]...),
		"a count above the records":    append(withCount(3), two[4:]...),
		"a count of 2^32-1":            append(withCount(math.MaxUint32), two[4:]...),
		"trailing bytes":               append(append([]byte(nil), two...), 0),
		"a SeqID running past the end": longID,
		"no count":                     {1, 0},
	}
}
