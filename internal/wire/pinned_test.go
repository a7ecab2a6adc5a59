package wire

import (
	"crypto/sha256"
	"encoding/hex"
	"math"
	"testing"
	"time"

	"twsearch/internal/core"
	"twsearch/internal/sequence"
)

// TestWireBytesPinned holds the version-5 layout of every message type to
// the bytes the version-gated codecs produced before their gates were
// folded: each digest is the SHA-256 of Encode's output captured at commit
// fac562e, the last one whose encoders still took a version. A codec edit
// that moves, widens or drops a field changes a digest; a deliberate layout
// change bumps Version and re-captures them.
func TestWireBytesPinned(t *testing.T) {
	stats := core.SearchStats{
		NodesVisited: 11, FilterCells: 12, PostCells: 13, Candidates: 14,
		FalseAlarms: 15, Answers: 16, PagesRead: 17, PoolHits: 18, PoolMisses: 19,
		EnvelopePruned: 20, LBCells: 21, Elapsed: 22 * time.Millisecond,
	}
	sreq := SearchReq{DB: "db", Index: "ix", Eps: 0.5, Timeout: time.Second,
		Parallelism: 4, Query: []float64{1, -2.5, math.Pi}}
	kreq := KNNReq{DB: "db", Index: "ix", K: 7, Timeout: time.Second,
		Parallelism: 2, Query: []float64{4, 5}}
	screq := ScanReq{DB: "db", Eps: 1.25, Timeout: time.Minute, Query: []float64{6}}
	match := Match{SeqID: "stock-0001", Seq: 1, Start: 2, End: 9, Distance: 0.75}
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
			Window: -1, MinAnswerLen: 3, SizeBytes: 1 << 20, Leaves: 100, Nodes: 130},
		{Name: "exact", Method: "identity", Window: 8},
	}}
	breq := BatchReq{DB: "db", Timeout: time.Second, Parallelism: 2, Items: []BatchItem{
		{Op: BatchOpSearch, Index: "ix", Eps: 0.5, Query: []float64{1, 2}},
		{Op: BatchOpKNN, Index: "ix", K: 3, Query: []float64{4}},
	}}
	bmatch := BatchMatch{ID: 1, SeqID: "s", Seq: 2, Start: 3, End: 9, Distance: 0.5}
	bdone := BatchItemDone{ID: 1, Stats: stats}
	berr := BatchItemError{ID: 1, Code: CodeNotFound, Msg: "no such index"}
	shresp := ShardsResp{Ranges: []ShardRange{{Start: 0, Count: 3}, {Start: 3, Count: 2}}}
	partial := &Error{Code: CodeShardUnavailable, Msg: "shard 1 lost", Answered: []int{0, 2}}

	for _, tc := range []struct {
		name string
		body []byte
		want string
	}{
		{"SearchReq", sreq.Encode(nil), "54f331601ee1d52904878ebe3e4768020e069652edfe32a24e345ad4e5e5fab4"},
		{"KNNReq", kreq.Encode(nil), "7e07993b63c04cb2b23e3fe61bad3b66333780b3895b58bb1c8149007850acaf"},
		{"ScanReq", screq.Encode(nil), "1a8da6c87fcc6c031981d75ee2bc3fecb75df9295c618687baaae03a449cf3fa"},
		{"StatsReq", (&StatsReq{DB: "db"}).Encode(nil), "eaeb001f36aae4e5d20e470a76f97f55b3168a1f0ce591b4fa773442aedac7b2"},
		{"ListIndexesReq", (&ListIndexesReq{DB: "db"}).Encode(nil), "eaeb001f36aae4e5d20e470a76f97f55b3168a1f0ce591b4fa773442aedac7b2"},
		{"Match", match.Encode(nil), "78eb24feb2d795f860f0e72a693e1183161f01ba306445417aeafd6e29850098"},
		{"Done", done.Encode(nil), "91d119986648c5b12f50d340f171419d6e4324ceca2428f224a16194eb2fcf76"},
		{"Error", EncodeError(nil, partial), "ab7ab1f80b7345a2a2e38d54a66a16ad9dd039b1e71435c62c52064e465bbe56"},
		{"ErrorPlain", EncodeError(nil, ErrOverloaded), "d488c73f2b0cf65ca989cb79616835a5ec984596984f445dc40ae8df6b8477d5"},
		{"StatsResp", sresp.Encode(nil), "9ab20669caa780c24a28478f39ba779b6b57fb9e96723bfcce86358517a08503"},
		{"IndexesResp", iresp.Encode(nil), "baae96161f65b6fd97777723414731df89d6fd2c89dd05d9737a6b1994fdfd16"},
		{"BatchReq", breq.Encode(nil), "5693d4a3a31da0cff77da62c17be4b3befe156e8d17eda599a2e33f8af9d3d7c"},
		{"BatchMatch", bmatch.Encode(nil), "f5b803abb1df64686f8df74cae40c2eaa2f9c02fdde9fc097b06411d4f7cc2de"},
		{"BatchItemDone", bdone.Encode(nil), "23fae0fade5a38fd735aee97e66bb2fc6b35abbf1e8dc3c93a73db96c506c22c"},
		{"BatchItemError", berr.Encode(nil), "63cb3b8123a5d14fbe652fa72d58d627900fd4ca6778e866ff947c6a94955ce6"},
		{"ShardsReq", (&ShardsReq{DB: "db"}).Encode(nil), "eaeb001f36aae4e5d20e470a76f97f55b3168a1f0ce591b4fa773442aedac7b2"},
		{"ShardsResp", shresp.Encode(nil), "57e112b10f8e9dab072d1ca1386cd8dff235f27cbea227ff13e69ebf4f427fec"},
	} {
		sum := sha256.Sum256(tc.body)
		if got := hex.EncodeToString(sum[:]); got != tc.want {
			t.Errorf("%s: %d bytes hash to %s, want %s", tc.name, len(tc.body), got, tc.want)
		}
	}
}
