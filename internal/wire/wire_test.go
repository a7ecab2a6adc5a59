package wire

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"
	"unsafe"

	"twsearch/internal/core"
	"twsearch/internal/sequence"
)

func TestHelloRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteHello(&buf); err != nil {
		t.Fatal(err)
	}
	v, err := ReadHello(&buf)
	if err != nil {
		t.Fatalf("ReadHello: %v", err)
	}
	if v != Version {
		t.Fatalf("version %d, want %d", v, Version)
	}
}

func TestHelloBadMagic(t *testing.T) {
	if _, err := ReadHello(strings.NewReader("HTTP/1.1")); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("err = %v, want ErrBadMagic", err)
	}
}

func TestHelloBadVersion(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteHello(&buf); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	// The neighbors of the one supported version are refused like any other;
	// 5 is the layout that still carried a parallelism word in the search,
	// k-NN and batch requests, 6 the last with the batch and topology frames,
	// 7 the last with one answer per match frame.
	for _, v := range []uint16{5, 6, 7, Version - 1, Version + 1, 0xFFFF} {
		b[4], b[5] = byte(v), byte(v>>8)
		got, err := ReadHello(bytes.NewReader(b))
		if !errors.Is(err, ErrVersion) || got != v {
			t.Fatalf("version %d: got (%d, %v), want ErrVersion", v, got, err)
		}
	}
}

func TestHelloTruncated(t *testing.T) {
	if _, err := ReadHello(strings.NewReader("TWS")); err == nil {
		t.Fatal("want error on truncated hello")
	}
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, TMatch, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	if err := WriteFrame(&buf, TDone, nil); err != nil {
		t.Fatal(err)
	}
	typ, body, err := ReadFrame(&buf)
	if err != nil || typ != TMatch || string(body) != "hello" {
		t.Fatalf("frame 1 = (%#x, %q, %v)", typ, body, err)
	}
	typ, body, err = ReadFrame(&buf)
	if err != nil || typ != TDone || len(body) != 0 {
		t.Fatalf("frame 2 = (%#x, %q, %v)", typ, body, err)
	}
	if _, _, err := ReadFrame(&buf); err != io.EOF {
		t.Fatalf("at end: %v, want io.EOF", err)
	}
}

func TestFrameLengthBounds(t *testing.T) {
	// Zero-length frames are invalid: the type byte is part of the payload.
	if _, _, err := ReadFrame(bytes.NewReader([]byte{0, 0, 0, 0})); err == nil {
		t.Fatal("want error on zero-length frame")
	}
	// A hostile length prefix must fail before allocating.
	if _, _, err := ReadFrame(bytes.NewReader([]byte{0xFF, 0xFF, 0xFF, 0xFF})); err == nil {
		t.Fatal("want error on oversized frame")
	}
	// Truncated body.
	if _, _, err := ReadFrame(bytes.NewReader([]byte{5, 0, 0, 0, TMatch, 'x'})); err == nil {
		t.Fatal("want error on truncated body")
	}
}

// TestReadFrameAllocatesAsBytesArrive: a header claiming MaxFrame followed
// by ten bytes and the end of the stream is a short read, and what it costs
// is what arrived rounded up to one chunk — not the 64 MiB the prefix asked
// for, which a stalled peer would otherwise pin per connection. Frames that
// do arrive whole read back intact on either side of the chunk size.
func TestReadFrameAllocatesAsBytesArrive(t *testing.T) {
	hostile := binary.LittleEndian.AppendUint32(nil, MaxFrame)
	hostile = append(hostile, TMatch, 1, 2, 3, 4, 5, 6, 7, 8, 9)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, err := ReadFrame(bytes.NewReader(hostile))
	runtime.ReadMemStats(&after)
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("truncated MaxFrame frame: %v, want io.ErrUnexpectedEOF", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
		t.Errorf("a 10-byte body claiming MaxFrame allocated %d bytes", grew)
	}

	for _, n := range []int{1, frameChunk - 1, frameChunk, frameChunk + 1, 5*frameChunk + 3} {
		body := make([]byte, n)
		for i := range body {
			body[i] = byte(i * 7)
		}
		var buf bytes.Buffer
		if err := WriteFrame(&buf, TMatch, body); err != nil {
			t.Fatal(err)
		}
		typ, got, err := ReadFrame(&buf)
		if err != nil || typ != TMatch || !bytes.Equal(got, body) {
			t.Errorf("%d-byte body: type %#x, %d bytes back, err %v", n, typ, len(got), err)
		}
		if _, _, err := ReadFrame(bytes.NewReader(binary.LittleEndian.AppendUint32(nil, uint32(n+1)))); !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Errorf("%d-byte frame with no body: %v, want io.ErrUnexpectedEOF", n, err)
		}
	}
}

func TestSearchReqRoundTrip(t *testing.T) {
	in := SearchReq{
		DB:      "default",
		Index:   "fast",
		Eps:     3.75,
		Timeout: 1500 * time.Millisecond,
		Query:   []float64{1, -2.5, math.Pi, 0},
	}
	out, err := DecodeSearchReq(in.Encode(nil))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip: %+v != %+v", out, in)
	}
}

func TestKNNReqRoundTrip(t *testing.T) {
	in := KNNReq{DB: "d", Index: "i", K: 7, Query: []float64{42}}
	out, err := DecodeKNNReq(in.Encode(nil))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip: %+v != %+v", out, in)
	}
}

func TestScanReqRoundTrip(t *testing.T) {
	in := ScanReq{DB: "d", Eps: 0.5, Timeout: time.Second, Query: []float64{1, 2}}
	out, err := DecodeScanReq(in.Encode(nil))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip: %+v != %+v", out, in)
	}
}

func TestSmallReqsRoundTrip(t *testing.T) {
	s, err := DecodeStatsReq((&StatsReq{DB: "x"}).Encode(nil))
	if err != nil || s.DB != "x" {
		t.Fatalf("stats req: %+v, %v", s, err)
	}
	l, err := DecodeListIndexesReq((&ListIndexesReq{DB: "y"}).Encode(nil))
	if err != nil || l.DB != "y" {
		t.Fatalf("list req: %+v, %v", l, err)
	}
}

func TestMatchRoundTripExactBits(t *testing.T) {
	// The distance must survive bit-exactly, including a signaling-ish NaN
	// payload: byte-identity over the wire is the acceptance bar.
	d := math.Float64frombits(0x7FF8_0000_DEAD_BEEF)
	in := Match{SeqID: "stock-0001", Seq: 1, Start: 10, End: 25, Distance: d}
	out, err := DecodeMatch(in.Encode(nil))
	if err != nil {
		t.Fatal(err)
	}
	if out.SeqID != in.SeqID || out.Seq != in.Seq || out.Start != in.Start || out.End != in.End {
		t.Fatalf("round trip: %+v != %+v", out, in)
	}
	if math.Float64bits(out.Distance) != math.Float64bits(in.Distance) {
		t.Fatalf("distance bits changed: %x != %x",
			math.Float64bits(out.Distance), math.Float64bits(in.Distance))
	}
}

// TestMatchBatchRoundTrip: a batch decodes to its records in order, with
// their distances' bits, and a run of records in one sequence shares one
// SeqID string.
func TestMatchBatchRoundTrip(t *testing.T) {
	in := MatchBatch{Matches: []Match{
		{SeqID: "a", Seq: 0, Start: 1, End: 4, Distance: 0.5},
		{SeqID: "a", Seq: 0, Start: 2, End: 4, Distance: math.Float64frombits(0x7FF8_0000_DEAD_BEEF)},
		{SeqID: "", Seq: 1, Start: 0, End: 1},
		{SeqID: "stock-0002", Seq: 2, Start: 7, End: 9, Distance: -0.0},
	}}
	out, err := DecodeMatchBatch(in.Encode(nil))
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Matches) != len(in.Matches) {
		t.Fatalf("%d records back, want %d", len(out.Matches), len(in.Matches))
	}
	for i, m := range out.Matches {
		w := in.Matches[i]
		if m.SeqID != w.SeqID || m.Seq != w.Seq || m.Start != w.Start || m.End != w.End ||
			math.Float64bits(m.Distance) != math.Float64bits(w.Distance) {
			t.Errorf("record %d: %+v, want %+v", i, m, w)
		}
	}
	if unsafe.StringData(out.Matches[0].SeqID) != unsafe.StringData(out.Matches[1].SeqID) {
		t.Error("two records of one sequence decoded to two SeqID strings")
	}
}

// TestMatchWriterBatches: records reach the writer only in TMatch frames of
// at least 32 KiB of records, except the last, which Flush sends; the
// frames read back, through one reused buffer, to the records in order.
func TestMatchWriterBatches(t *testing.T) {
	var buf bytes.Buffer
	mw := NewMatchWriter(&buf)
	mw.Start()
	const n = 5000
	for i := 0; i < n; i++ {
		m := Match{SeqID: fmt.Sprintf("s%d", i/300), Seq: i / 300, Start: i, End: i + 3, Distance: float64(i)}
		if err := mw.Add(&m); err != nil {
			t.Fatal(err)
		}
		if (buf.Len() > 0) != (mw.Sent() > 0) {
			t.Fatalf("after %d records: %d bytes written, %d records sent", i+1, buf.Len(), mw.Sent())
		}
	}
	pending := n - mw.Sent()
	if pending == 0 || pending == n {
		t.Fatalf("%d of %d records pending before Flush: want the batches full and a remainder", pending, n)
	}
	if err := mw.Flush(); err != nil {
		t.Fatal(err)
	}
	if mw.Sent() != n {
		t.Fatalf("sent %d, want %d", mw.Sent(), n)
	}
	var dec MatchDecoder
	frame := make([]byte, 0, 64<<10)
	got, frames := 0, 0
	for buf.Len() > 0 {
		typ, body, err := ReadFrameInto(&buf, frame)
		if err != nil || typ != TMatch {
			t.Fatalf("frame %d: type %#x, %v", frames, typ, err)
		}
		if &body[0] != &frame[:2][1] {
			t.Fatalf("frame %d of %d bytes was not read into the buffer", frames, len(body))
		}
		cnt, err := dec.Reset(body)
		if err != nil {
			t.Fatal(err)
		}
		var m Match
		for dec.Next(&m) {
			if m.Start != got || m.SeqID != fmt.Sprintf("s%d", got/300) {
				t.Fatalf("record %d: %+v", got, m)
			}
			got++
			cnt--
		}
		if err := dec.Err(); err != nil || cnt != 0 {
			t.Fatalf("frame %d: %v, %d records short", frames, err, cnt)
		}
		if frames++; buf.Len() > 0 && len(body)-4 < batchBytes {
			t.Errorf("frame %d carries %d bytes of records, want at least %d", frames, len(body)-4, batchBytes)
		}
	}
	if got != n || frames < 3 {
		t.Fatalf("%d records in %d frames, want %d in at least 3", got, frames, n)
	}
}

func TestDoneRoundTrip(t *testing.T) {
	in := Done{Stats: core.SearchStats{
		NodesVisited: 1, FilterCells: 2, PostCells: 3, Candidates: 4,
		FalseAlarms: 5, Answers: 6, PagesRead: 7, PoolHits: 8, PoolMisses: 9,
		Elapsed: 10 * time.Millisecond,
	}}
	out, err := DecodeDone(in.Encode(nil))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip: %+v != %+v", out, in)
	}
}

func TestErrorRoundTripAndIs(t *testing.T) {
	body := EncodeError(nil, ErrOverloaded)
	e, err := DecodeError(body)
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(e, ErrOverloaded) {
		t.Fatalf("decoded error %v does not match ErrOverloaded", e)
	}
	if errors.Is(e, ErrShutdown) {
		t.Fatal("overloaded must not match shutdown")
	}

	// Deadline and shutdown codes stand in for their context sentinels.
	de, err := DecodeError(EncodeError(nil, context.DeadlineExceeded))
	if err != nil {
		t.Fatal(err)
	}
	if de.Code != CodeDeadline || !errors.Is(de, context.DeadlineExceeded) {
		t.Fatalf("deadline mapping broken: %+v", de)
	}
	ce, err := DecodeError(EncodeError(nil, context.Canceled))
	if err != nil {
		t.Fatal(err)
	}
	if ce.Code != CodeShutdown || !errors.Is(ce, context.Canceled) {
		t.Fatalf("canceled mapping broken: %+v", ce)
	}
	if got := CodeOf(errors.New("boom")); got != CodeInternal {
		t.Fatalf("CodeOf(plain) = %v, want internal", got)
	}
}

func TestStatsRespRoundTrip(t *testing.T) {
	in := StatsResp{
		Stats: sequence.Stats{
			Sequences: 3, TotalElements: 99, AvgLen: 33, MinLen: 10, MaxLen: 50,
			MinValue: -1.5, MaxValue: 9.75, MeanValue: 2.25, StdDev: 1.125,
		},
		Pools: []PoolInfo{
			{Index: "fast", Shards: []PoolShard{
				{Hits: 10, Misses: 2, Evictions: 1},
				{Hits: 7, Misses: 3},
			}},
			{Index: "exact", Shards: []PoolShard{{Misses: 5}}},
		},
	}
	out, err := DecodeStatsResp(in.Encode(nil))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip: %+v != %+v", out, in)
	}
	noPools, err := DecodeStatsResp((&StatsResp{}).Encode(nil))
	if err != nil || len(noPools.Pools) != 0 {
		t.Fatalf("empty-pools round trip: %+v, %v", noPools, err)
	}
}

func TestIndexesRespRoundTrip(t *testing.T) {
	in := IndexesResp{Indexes: []IndexInfo{
		{Name: "fast", Method: "max-entropy", Categories: 20, Sparse: true,
			Window: -1, MinAnswerLen: 0, SizeBytes: 1 << 20, Leaves: 100, Nodes: 130},
		{Name: "exact", Method: "identity", Window: 8},
	}}
	out, err := DecodeIndexesResp(in.Encode(nil))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip: %+v != %+v", out, in)
	}
	empty, err := DecodeIndexesResp((&IndexesResp{}).Encode(nil))
	if err != nil || len(empty.Indexes) != 0 {
		t.Fatalf("empty round trip: %+v, %v", empty, err)
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	good := (&SearchReq{DB: "d", Index: "i", Eps: 1, Query: []float64{1, 2, 3}}).Encode(nil)
	// Every truncation of a valid body must fail cleanly, never panic.
	for n := 0; n < len(good); n++ {
		if _, err := DecodeSearchReq(good[:n]); err == nil {
			t.Fatalf("truncation at %d decoded successfully", n)
		}
	}
	// Trailing garbage is rejected too: frames are consumed exactly.
	if _, err := DecodeSearchReq(append(append([]byte{}, good...), 0xAA)); err == nil {
		t.Fatal("trailing bytes decoded successfully")
	}
	// A string length that overruns the body must not allocate or read OOB.
	bad := append([]byte{0xFF, 0xFF, 0xFF, 0x7F}, "tiny"...)
	if _, err := DecodeSearchReq(bad); err == nil {
		t.Fatal("oversized string length decoded successfully")
	}
	// A float count that overruns the body must fail before allocating.
	badFloats := (&ScanReq{DB: "d", Eps: 1}).Encode(nil)
	badFloats = badFloats[:len(badFloats)-4]
	badFloats = append(badFloats, 0xFF, 0xFF, 0xFF, 0x7F)
	if _, err := DecodeScanReq(badFloats); err == nil {
		t.Fatal("oversized float count decoded successfully")
	}
	// A body in a retired version's layout (version 5 carried a parallelism
	// word before the query) is refused by the reader, not mis-parsed.
	for _, par := range []uint32{0, 4} {
		old := v5Req((&SearchReq{DB: "d", Index: "i", Eps: 1, Query: []float64{1, 2, 3}}).Encode(nil), 3, par)
		if _, err := DecodeSearchReq(old); err == nil || !strings.Contains(err.Error(), "wire:") {
			t.Fatalf("version-5 SearchReq body, parallelism %d: err = %v, want a reader error", par, err)
		}
	}
	// K travels as a uint32: zero and anything above MaxInt32 (a negative k
	// on the sending side: -1 is 0xFFFFFFFF, MinInt32 is MaxInt32+1) must be
	// refused, not searched.
	for _, k := range []int{0, -1, math.MinInt32} {
		body := (&KNNReq{DB: "d", Index: "i", K: k, Query: []float64{1}}).Encode(nil)
		if _, err := DecodeKNNReq(body); err == nil || !strings.Contains(err.Error(), "k must be positive") {
			t.Errorf("KNNReq k=%d: err = %v, want k must be positive", k, err)
		}
	}
	if _, err := DecodeKNNReq((&KNNReq{DB: "d", Index: "i", K: math.MaxInt32, Query: []float64{1}}).Encode(nil)); err != nil {
		t.Errorf("KNNReq k=MaxInt32: %v", err)
	}
	// A match batch is refused whole when its count is zero or claims more
	// records than are there, when bytes trail its last record, or when a
	// record's SeqID length runs past the body.
	for name, body := range badBatches() {
		if _, err := DecodeMatchBatch(body); err == nil || !strings.Contains(err.Error(), "wire:") {
			t.Errorf("match batch with %s: err = %v, want a reader error", name, err)
		}
	}
}
