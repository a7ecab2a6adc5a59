package wire

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"math"
	"testing"
	"time"

	"twsearch/internal/core"
	"twsearch/internal/sequence"
)

// TestWireBytesPinned holds the version-9 layout of every message type, and
// the hello that announces it, to captured bytes: each digest is the
// SHA-256 of Encode's output (WriteHello's, for the hello). Version 9 added
// an index's encoding and pool pages to the end of each IndexInfo: the
// hello and IndexesResp were re-captured. Version 8 made
// a TMatch body a batch of match records: the hello was re-captured and the
// MatchBatch digest added; a record ("Match") kept its bytes. Version 7 was
// version 6 without the batch and topology messages: only the hello was
// re-captured then. Version 6 dropped the parallelism word of SearchReq and
// KNNReq, and re-captured those two; every other digest is unchanged since
// commit fac562e, the last whose encoders still took a version. A codec
// edit that moves, widens or drops a field changes a digest; a deliberate
// layout change bumps Version and re-captures them.
func TestWireBytesPinned(t *testing.T) {
	stats := core.SearchStats{
		NodesVisited: 11, FilterCells: 12, PostCells: 13, Candidates: 14,
		FalseAlarms: 15, Answers: 16, PagesRead: 17, PoolHits: 18, PoolMisses: 19,
		EnvelopePruned: 20, LBCells: 21, Elapsed: 22 * time.Millisecond,
	}
	sreq := SearchReq{DB: "db", Index: "ix", Eps: 0.5, Timeout: time.Second, Query: []float64{1, -2.5, math.Pi}}
	kreq := KNNReq{DB: "db", Index: "ix", K: 7, Timeout: time.Second, Query: []float64{4, 5}}
	screq := ScanReq{DB: "db", Eps: 1.25, Timeout: time.Minute, Query: []float64{6}}
	match := Match{SeqID: "stock-0001", Seq: 1, Start: 2, End: 9, Distance: 0.75}
	batch := MatchBatch{Matches: []Match{match, {SeqID: "stock-0001", Seq: 1, Start: 3, End: 9, Distance: 0.5}, {SeqID: "stock-0002", Seq: 2, End: 4}}}
	done := Done{Stats: stats}
	sresp := StatsResp{
		Stats: sequence.Stats{
			Sequences: 3, TotalElements: 99, AvgLen: 33, MinLen: 10, MaxLen: 50,
			MinValue: -1.5, MaxValue: 9.75, MeanValue: 2.25, StdDev: 1.125,
		},
		Pools: []PoolInfo{
			{Index: "fast", Shards: []PoolShard{{Hits: 10, Misses: 2, Evictions: 1}, {Hits: 7}}},
			{Index: "exact"},
		},
	}
	iresp := IndexesResp{Indexes: []IndexInfo{
		{Name: "fast", Method: "max-entropy", Categories: 20, Sparse: true,
			Window: -1, MinAnswerLen: 3, SizeBytes: 1 << 20, Leaves: 100, Nodes: 130,
			Encoding: 2, PoolPages: 64},
		{Name: "exact", Method: "identity", Window: 8, Encoding: 1},
	}}
	partial := &Error{Code: CodeShardUnavailable, Msg: "shard 1 lost", Answered: []int{0, 2}}
	var hello bytes.Buffer
	if err := WriteHello(&hello); err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name string
		body []byte
		want string
	}{
		{"Hello", hello.Bytes(), "cd5666a0470ba8888d33b5eab2167ce94f85ad539fdfcff41176bbdd1513e572"},
		{"SearchReq", sreq.Encode(nil), "381c01e73a9bafe7316b17c242fb9d7fd8ea5770f1a950f59676eb00dcb1a494"},
		{"KNNReq", kreq.Encode(nil), "96dfe0330559a2e75d1457ece1d8708e7d11ab8b3ed1a8117f1e012b135a9548"},
		{"ScanReq", screq.Encode(nil), "1a8da6c87fcc6c031981d75ee2bc3fecb75df9295c618687baaae03a449cf3fa"},
		{"StatsReq", (&StatsReq{DB: "db"}).Encode(nil), "eaeb001f36aae4e5d20e470a76f97f55b3168a1f0ce591b4fa773442aedac7b2"},
		{"ListIndexesReq", (&ListIndexesReq{DB: "db"}).Encode(nil), "eaeb001f36aae4e5d20e470a76f97f55b3168a1f0ce591b4fa773442aedac7b2"},
		{"Match", match.Encode(nil), "78eb24feb2d795f860f0e72a693e1183161f01ba306445417aeafd6e29850098"},
		{"MatchBatch", batch.Encode(nil), "05880c7d7d9943f7130b4c294ca8374c420232699e10a907526251082c58f479"},
		{"Done", done.Encode(nil), "91d119986648c5b12f50d340f171419d6e4324ceca2428f224a16194eb2fcf76"},
		{"Error", EncodeError(nil, partial), "ab7ab1f80b7345a2a2e38d54a66a16ad9dd039b1e71435c62c52064e465bbe56"},
		{"ErrorPlain", EncodeError(nil, ErrOverloaded), "d488c73f2b0cf65ca989cb79616835a5ec984596984f445dc40ae8df6b8477d5"},
		{"StatsResp", sresp.Encode(nil), "9ab20669caa780c24a28478f39ba779b6b57fb9e96723bfcce86358517a08503"},
		{"IndexesResp", iresp.Encode(nil), "50499513cf8fdda2b758bf91dc2a2a73a31b5eaa870a218e27cacf7d8867ead4"},
	} {
		sum := sha256.Sum256(tc.body)
		if got := hex.EncodeToString(sum[:]); got != tc.want {
			t.Errorf("%s: %d bytes hash to %s, want %s", tc.name, len(tc.body), got, tc.want)
		}
	}
}
