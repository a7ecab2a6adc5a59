package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// MatchBatch is the body of a TMatch frame: a u32 record count, at least
// one, then that many Match records back to back, each exactly the bytes
// (*Match).Encode writes.
type MatchBatch struct{ Matches []Match }

// Encode appends the batch body to b.
func (m *MatchBatch) Encode(b []byte) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(len(m.Matches)))
	for i := range m.Matches {
		b = m.Matches[i].Encode(b)
	}
	return b
}

// DecodeMatchBatch parses a TMatch body.
func DecodeMatchBatch(body []byte) (MatchBatch, error) {
	var d MatchDecoder
	n, err := d.Reset(body)
	if err != nil {
		return MatchBatch{}, err
	}
	m := MatchBatch{Matches: make([]Match, 0, n)}
	var wm Match
	for d.Next(&wm) {
		m.Matches = append(m.Matches, wm)
	}
	return m, d.Err()
}

// minMatchRecord is the size of the shortest Match record: an empty SeqID's
// length word, three u32 positions and the distance's eight bytes.
const minMatchRecord = 4 + 3*4 + 8

// MatchDecoder reads the records of TMatch bodies where they lie. A
// record's SeqID reuses the previous record's string when the bytes are
// equal — answers arrive grouped by sequence — so a stream allocates one
// string per run of answers in one sequence, not one per answer. The zero
// value is ready for Reset.
type MatchDecoder struct {
	r    Reader
	left uint32
	id   string
}

// Reset starts on a TMatch body and returns its record count. A count of
// zero, or one the body's bytes cannot hold, is refused before any record
// is read.
func (d *MatchDecoder) Reset(body []byte) (int, error) {
	d.r = Reader{b: body}
	d.left = 0
	n := d.r.U32()
	switch {
	case d.r.err != nil:
		return 0, d.r.Err()
	case n == 0:
		return 0, errors.New("wire: bad frame: empty match batch")
	case uint64(n)*minMatchRecord > uint64(len(body)-4):
		return 0, fmt.Errorf("wire: bad frame: %d match records in %d bytes", n, len(body)-4)
	}
	d.left = n
	return int(n), nil
}

// Next decodes the batch's next record into m. It reports false once the
// batch is done or at a malformed record; Err tells the two apart.
func (d *MatchDecoder) Next(m *Match) bool {
	if d.left == 0 || d.r.err != nil {
		return false
	}
	d.left--
	r := &d.r
	n := r.U32()
	if r.err == nil && int64(n) > int64(len(r.b)-r.off) {
		r.err = io.ErrUnexpectedEOF
	}
	if id := r.take(int(n)); r.err == nil && string(id) != d.id {
		d.id = string(id)
	}
	m.SeqID = d.id
	m.Seq = int(r.U32())
	m.Start = int(r.U32())
	m.End = int(r.U32())
	m.Distance = r.F64()
	return r.err == nil
}

// Err reports, once Next returns false, the first malformed record, or the
// trailing bytes after the last one: a batch is consumed exactly.
func (d *MatchDecoder) Err() error { return d.r.Err() }

// batchBytes is the record payload at which MatchWriter sends a batch: a
// frame's fixed costs — header, a write, a read, a decode call — vanish per
// answer well before it, and a batch plus one record stays inside the 64 KiB
// a reader holds in place (ReadFrameInto).
const batchBytes = 32 << 10

// batchHeader is a TMatch frame's bytes before its first record: the
// length prefix, the type byte and the record count.
const batchHeader = 4 + 1 + 4

// MatchWriter streams answers as TMatch frames. Add appends a record to the
// pending batch and sends the batch once its records reach 32 KiB; Flush
// sends what is pending, and runs before the stream's TDone or TError. The
// batch is assembled in one buffer, header included, that the writer keeps
// between streams.
type MatchWriter struct {
	w    io.Writer
	buf  []byte
	n    uint32
	sent int
}

// NewMatchWriter returns a writer of match streams to w.
func NewMatchWriter(w io.Writer) *MatchWriter {
	return &MatchWriter{w: w, buf: make([]byte, batchHeader, batchHeader+batchBytes+256)}
}

// Start begins a new stream: the count of records sent restarts at zero.
// Records pending from an abandoned stream are dropped.
func (mw *MatchWriter) Start() {
	mw.buf, mw.n, mw.sent = mw.buf[:batchHeader], 0, 0
}

// Add appends m to the pending batch, sending the batch when it is full.
func (mw *MatchWriter) Add(m *Match) error {
	mw.buf = m.Encode(mw.buf)
	mw.n++
	if len(mw.buf)-batchHeader >= batchBytes {
		return mw.Flush()
	}
	return nil
}

// Flush sends the pending records, if any, as one TMatch frame.
func (mw *MatchWriter) Flush() error {
	if mw.n == 0 {
		return nil
	}
	size := len(mw.buf) - 4
	if size > MaxFrame {
		return fmt.Errorf("wire: match batch of %d bytes exceeds MaxFrame", size)
	}
	binary.LittleEndian.PutUint32(mw.buf[0:4], uint32(size))
	mw.buf[4] = TMatch
	binary.LittleEndian.PutUint32(mw.buf[5:batchHeader], mw.n)
	_, err := mw.w.Write(mw.buf)
	if err == nil {
		mw.sent += int(mw.n)
	}
	mw.buf, mw.n = mw.buf[:batchHeader], 0
	return err
}

// Sent returns the records of this stream that frames have carried to the
// underlying writer.
func (mw *MatchWriter) Sent() int { return mw.sent }
