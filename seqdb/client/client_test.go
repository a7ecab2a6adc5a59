package client

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"testing"

	"twsearch/internal/wire"
	"twsearch/seqdb"
)

// cannedStream is the server's reply to a search with n answers, grouped
// into seqs runs of one sequence each: match frames as the server's
// MatchWriter cuts them, then the done frame. It returns the bytes and the
// number of match frames.
func cannedStream(t *testing.T, n, seqs int) ([]byte, int) {
	t.Helper()
	var buf bytes.Buffer
	mw := wire.NewMatchWriter(&buf)
	mw.Start()
	for i := 0; i < n; i++ {
		seq := i * seqs / n
		m := wire.Match{SeqID: fmt.Sprintf("seq-%04d", seq), Seq: seq, Start: i, End: i + 20, Distance: float64(i) / 8}
		if err := mw.Add(&m); err != nil {
			t.Fatal(err)
		}
	}
	if err := mw.Flush(); err != nil {
		t.Fatal(err)
	}
	frames := 0
	for r := bytes.NewReader(buf.Bytes()); r.Len() > 0; frames++ {
		if _, _, err := wire.ReadFrame(r); err != nil {
			t.Fatal(err)
		}
	}
	done := wire.Done{}
	if err := wire.WriteFrame(&buf, wire.TDone, done.Encode(nil)); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), frames
}

// TestReadMatchStreamAllocations: reading a match stream allocates for the
// frames and for each run of answers in one sequence (its SeqID string),
// not for each answer — frames are read into the client's buffer and
// decoded in place. A stream twice as long with as many sequences costs
// the same.
func TestReadMatchStreamAllocations(t *testing.T) {
	const seqs = 25
	for _, n := range []int{10000, 20000} {
		stream, frames := cannedStream(t, n, seqs)
		rd := bytes.NewReader(stream)
		c := &Client{br: bufio.NewReaderSize(rd, 64<<10)}
		got := 0
		allocs := testing.AllocsPerRun(10, func() {
			rd.Reset(stream)
			c.br.Reset(rd)
			got = 0
			if _, err := c.readMatchStream(context.Background(), func(m seqdb.Match) bool {
				if m.Start != got {
					t.Fatalf("answer %d: %+v", got, m)
				}
				got++
				return true
			}); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%d answers, %d sequences, %d frames: %.0f allocations", n, seqs, frames, allocs)
		if got != n {
			t.Fatalf("%d answers read, want %d", got, n)
		}
		if allocs > float64(frames+seqs) {
			t.Errorf("%d answers in %d frames over %d sequences: %.0f allocations, want at most %d", n, frames, seqs, allocs, frames+seqs)
		}
	}
}

// TestCollectMatchStream: a gathered answer set comes back whole, in stream
// order, in a slice of exactly its length, across calls that keep and
// outgrow the client's chunks.
func TestCollectMatchStream(t *testing.T) {
	c := &Client{}
	for _, n := range []int{1, chunkLen - 1, chunkLen, 3*chunkLen + 5, (keptChunks + 3) * chunkLen, 7} {
		stream, _ := cannedStream(t, n, 4)
		c.br = bufio.NewReader(bytes.NewReader(stream))
		ms, _, err := c.collectMatchStream(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if len(ms) != n || cap(ms) != n {
			t.Fatalf("%d answers: len %d cap %d", n, len(ms), cap(ms))
		}
		for i, m := range ms {
			if m.Start != i || m.SeqID != fmt.Sprintf("seq-%04d", i*4/n) {
				t.Fatalf("%d answers: answer %d is %+v", n, i, m)
			}
		}
		if len(c.chunks) > keptChunks {
			t.Errorf("%d answers: %d chunks kept, want at most %d", n, len(c.chunks), keptChunks)
		}
	}
}

// TestStreamFailureNamesContextCause: a match stream that breaks after the
// caller's context has ended fails with an error naming the context's end
// as its cause, not only the transport's symptom.
func TestStreamFailureNamesContextCause(t *testing.T) {
	stream, _ := cannedStream(t, 100, 2)
	c := &Client{br: bufio.NewReader(bytes.NewReader(stream[:len(stream)/2]))}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.readMatchStream(ctx, func(seqdb.Match) bool { return true }); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want the broken stream's error wrapping context.Canceled", err)
	}
}

// TestRefusedCallsReleaseLock: every call that fails before it sends — on
// a context already cancelled, which begin refuses before dialing —
// returns with the client's lock free, so the client's next call runs.
func TestRefusedCallsReleaseLock(t *testing.T) {
	c := &Client{addr: "127.0.0.1:1"}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	q := []float64{1, 2, 3}
	opts := seqdb.SearchOptions{}
	for _, tc := range []struct {
		op   string
		call func() error
	}{
		{"SearchVisitWith", func() error {
			_, err := c.SearchVisitWith(ctx, "main", "ix", q, 1, func(seqdb.Match) bool { return true }, opts)
			return err
		}},
		{"SearchWith", func() error { _, _, err := c.SearchWith(ctx, "main", "ix", q, 1, opts); return err }},
		{"SearchKNNWith", func() error { _, _, err := c.SearchKNNWith(ctx, "main", "ix", q, 2, opts); return err }},
		{"SeqScan", func() error { _, _, err := c.SeqScan(ctx, "main", q, 1); return err }},
		{"Stats", func() error { _, err := c.Stats(ctx, "main"); return err }},
		{"ListIndexes", func() error { _, err := c.ListIndexes(ctx, "main"); return err }},
	} {
		if err := tc.call(); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: err = %v, want context.Canceled", tc.op, err)
		}
		if !c.mu.TryLock() {
			t.Errorf("%s returned holding the client's lock", tc.op)
		}
		c.mu.Unlock() // ours, or the one the call kept
	}
}
