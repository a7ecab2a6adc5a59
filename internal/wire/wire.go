// Package wire defines the twsearchd network protocol: a versioned,
// length-prefixed binary framing shared by seqdb/server and seqdb/client.
//
// A connection opens with a fixed-size handshake in each direction:
//
//	magic    [4]byte  "TWSD"
//	version  uint16   protocol version (little endian)
//	reserved uint16   zero
//
// The client sends its hello first; the server answers with its own and
// closes the connection if the versions are incompatible. After the
// handshake the stream is a sequence of frames:
//
//	length  uint32   payload size including the type byte (little endian)
//	type    byte     frame type (T* constants)
//	body    [length-1]byte
//
// Requests (client to server) are one frame each; the connection is
// half-duplex, one request at a time. A search-shaped request is answered
// by a stream of TMatch frames terminated by exactly one TDone (carrying
// the search's work counters) or one TError. A TMatch frame carries a batch
// of answers (MatchBatch), sent once about 32 KiB of them are pending and
// before the terminating frame (MatchWriter), so a large answer set is
// never buffered whole on either side and a frame's fixed costs are paid
// per batch, not per answer. Stats and ListIndexes are answered by a single
// TStatsResp / TIndexes frame. All integers are little endian; float64s
// travel as their IEEE-754 bits, so values round-trip exactly and server
// answers are byte-identical to in-process results.
package wire

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
)

// Version is the protocol version this package speaks, and the only layout
// the codecs know: the handshake refuses a peer with any other version, so
// every message has one Encode and one Decode. Changing a layout means
// bumping Version and rebuilding both sides. Version 8 batches the
// answers of a TMatch frame; version 9 adds an index's encoding and pool
// pages to its IndexInfo.
const Version = 9

// magic identifies a twsearchd connection.
var magic = [4]byte{'T', 'W', 'S', 'D'}

// MaxFrame bounds a frame's payload (64 MiB): large enough for any real
// query or answer frame, small enough that a corrupt or hostile length
// prefix cannot make a peer allocate unbounded memory.
const MaxFrame = 1 << 26

// Frame types. Requests are 0x0*, responses 0x1*.
const (
	TSearch      byte = 0x01 // SearchReq: range search via an index
	TKNN         byte = 0x02 // KNNReq: k-nearest-neighbor search
	TScan        byte = 0x03 // ScanReq: exhaustive sequential scan
	TStats       byte = 0x04 // StatsReq: dataset summary statistics
	TListIndexes byte = 0x05 // ListIndexesReq: open indexes of a DB

	TMatch     byte = 0x10 // MatchBatch: a batch of streamed answers
	TDone      byte = 0x11 // Done: end of a match stream, with stats
	TError     byte = 0x12 // ErrorFrame: request failed
	TStatsResp byte = 0x13 // StatsResp: answer to TStats
	TIndexes   byte = 0x14 // IndexesResp: answer to TListIndexes
)

// ErrBadMagic reports a handshake that is not a twsearchd hello.
var ErrBadMagic = errors.New("wire: bad magic, not a twsearchd connection")

// ErrVersion reports a handshake with an incompatible protocol version.
var ErrVersion = errors.New("wire: incompatible protocol version")

// WriteHello sends the 8-byte handshake.
func WriteHello(w io.Writer) error {
	var b [8]byte
	copy(b[:4], magic[:])
	binary.LittleEndian.PutUint16(b[4:6], Version)
	_, err := w.Write(b[:])
	return err
}

// ReadHello reads and validates the peer's handshake, returning its
// version. A wrong magic yields ErrBadMagic; a version mismatch ErrVersion
// (the version is still returned for diagnostics).
func ReadHello(r io.Reader) (uint16, error) {
	var b [8]byte
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return 0, fmt.Errorf("wire: reading hello: %w", err)
	}
	if [4]byte(b[:4]) != magic {
		return 0, ErrBadMagic
	}
	v := binary.LittleEndian.Uint16(b[4:6])
	if v != Version {
		return v, fmt.Errorf("%w: peer speaks %d, this side %d", ErrVersion, v, Version)
	}
	return v, nil
}

// WriteFrame sends one frame: length prefix, type byte, body.
func WriteFrame(w io.Writer, t byte, body []byte) error {
	if len(body)+1 > MaxFrame {
		return fmt.Errorf("wire: frame body %d bytes exceeds MaxFrame", len(body))
	}
	var hdr [5]byte
	binary.LittleEndian.PutUint32(hdr[:4], uint32(len(body)+1))
	hdr[4] = t
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if len(body) == 0 {
		return nil
	}
	_, err := w.Write(body)
	return err
}

// frameChunk is the largest frame ReadFrame allocates whole before its
// bytes arrive: every match and request frame of a real query.
const frameChunk = 1 << 16

// ReadFrame reads one frame, enforcing the MaxFrame bound before
// allocating. The returned body aliases a fresh buffer. The length prefix is
// the peer's word, so a frame above frameChunk grows its buffer only as its
// bytes arrive, doubling: a peer that announces MaxFrame and stalls pins
// frameChunk bytes, not 64 MiB. A stream that ends inside a frame is
// io.ErrUnexpectedEOF.
func ReadFrame(r io.Reader) (byte, []byte, error) { return ReadFrameInto(r, nil) }

// ReadFrameInto is ReadFrame reading into buf's storage: a frame that fits
// in cap(buf) allocates nothing, and its body aliases buf until the next
// read into it; a larger one is read as ReadFrame reads it, into a fresh
// buffer.
func ReadFrameInto(r io.Reader, buf []byte) (byte, []byte, error) {
	if cap(buf) < 4 {
		buf = make([]byte, 4)
	}
	hdr := buf[:4]
	if _, err := io.ReadFull(r, hdr); err != nil {
		return 0, nil, err
	}
	size := binary.LittleEndian.Uint32(hdr)
	if size == 0 {
		return 0, nil, errors.New("wire: zero-length frame")
	}
	if size > MaxFrame {
		return 0, nil, fmt.Errorf("wire: frame of %d bytes exceeds MaxFrame", size)
	}
	n := int(size)
	if n <= cap(buf) {
		buf = buf[:n]
	} else {
		buf = make([]byte, min(n, frameChunk))
	}
	for have := 0; ; {
		if _, err := io.ReadFull(r, buf[have:]); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return 0, nil, fmt.Errorf("wire: reading frame body: %w", err)
		}
		if have = len(buf); have == n {
			return buf[0], buf[1:], nil
		}
		buf = append(buf, make([]byte, min(n-have, have))...)
	}
}

// Code classifies a server-side failure for the wire. It survives the trip
// so clients can react with errors.Is instead of string matching.
type Code uint8

// The error codes a TError frame can carry.
const (
	CodeBadRequest       Code = 1 // malformed or semantically invalid request
	CodeNotFound         Code = 2 // unknown DB or index name
	CodeOverloaded       Code = 3 // admission semaphore full; retry later
	CodeDeadline         Code = 4 // request deadline exceeded mid-search
	CodeShutdown         Code = 5 // server draining; the search was canceled
	CodeInternal         Code = 6 // anything else
	CodeShardUnavailable Code = 7 // a sharded search lost one or more shards
)

func (c Code) String() string {
	switch c {
	case CodeBadRequest:
		return "bad-request"
	case CodeNotFound:
		return "not-found"
	case CodeOverloaded:
		return "overloaded"
	case CodeDeadline:
		return "deadline"
	case CodeShutdown:
		return "shutdown"
	case CodeInternal:
		return "internal"
	case CodeShardUnavailable:
		return "shard-unavailable"
	}
	return fmt.Sprintf("code-%d", uint8(c))
}

// Error is a server failure as seen through the wire. It is the typed form
// of a TError frame; equality for errors.Is is by Code, and CodeDeadline /
// CodeShutdown errors additionally match context.DeadlineExceeded /
// context.Canceled so context-shaped callers need no wire-specific checks.
// Answered, set on CodeShardUnavailable errors, lists the shards that
// returned complete results before the search lost the rest.
type Error struct {
	Code     Code
	Msg      string
	Answered []int
}

func (e *Error) Error() string {
	return fmt.Sprintf("twsearchd: %s (%s)", e.Msg, e.Code)
}

// Is matches any *Error with the same code, plus the context sentinels the
// code stands for.
func (e *Error) Is(target error) bool {
	if o, ok := target.(*Error); ok {
		return o.Code == e.Code
	}
	switch target {
	case context.DeadlineExceeded:
		return e.Code == CodeDeadline
	case context.Canceled:
		return e.Code == CodeShutdown
	}
	return false
}

// ErrOverloaded, ErrShutdown and ErrShardUnavailable are errors.Is targets
// for the admission and partial-failure outcomes callers branch on.
var (
	ErrOverloaded       = &Error{Code: CodeOverloaded, Msg: "server overloaded"}
	ErrShutdown         = &Error{Code: CodeShutdown, Msg: "server shutting down"}
	ErrShardUnavailable = &Error{Code: CodeShardUnavailable, Msg: "shard unavailable"}
)

// CodeOf classifies err for transmission: a *Error keeps its code, context
// errors map to CodeDeadline/CodeShutdown, everything else is internal.
func CodeOf(err error) Code {
	var we *Error
	if errors.As(err, &we) {
		return we.Code
	}
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return CodeDeadline
	case errors.Is(err, context.Canceled):
		return CodeShutdown
	}
	return CodeInternal
}

// appendString appends a u32-length-prefixed string.
func appendString(b []byte, s string) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(len(s)))
	return append(b, s...)
}

// appendFloats appends a u32-count-prefixed []float64.
func appendFloats(b []byte, vs []float64) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(len(vs)))
	for _, v := range vs {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	return b
}

// Reader decodes a frame body with a sticky error: after any short read
// every accessor returns zero values and Err reports the failure, so
// decoders read fields straight through and check once.
type Reader struct {
	b   []byte
	off int
	err error
}

// NewReader wraps a frame body.
func NewReader(b []byte) *Reader { return &Reader{b: b} }

func (r *Reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if len(r.b)-r.off < n {
		r.err = io.ErrUnexpectedEOF
		return nil
	}
	s := r.b[r.off : r.off+n]
	r.off += n
	return s
}

// U8 reads one byte.
func (r *Reader) U8() byte {
	s := r.take(1)
	if s == nil {
		return 0
	}
	return s[0]
}

// Bool reads a byte as a boolean. Only 0 and 1 are accepted: a canonical
// encoding keeps decode∘encode the identity on valid frames, which the
// round-trip fuzzer (FuzzFrameRoundTrip) relies on byte for byte.
func (r *Reader) Bool() bool {
	v := r.U8()
	if r.err == nil && v > 1 {
		r.err = fmt.Errorf("non-canonical boolean byte %#x", v)
	}
	return v == 1
}

// U32 reads a little-endian uint32.
func (r *Reader) U32() uint32 {
	s := r.take(4)
	if s == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(s)
}

// U64 reads a little-endian uint64.
func (r *Reader) U64() uint64 {
	s := r.take(8)
	if s == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(s)
}

// I64 reads a little-endian int64.
func (r *Reader) I64() int64 { return int64(r.U64()) }

// F64 reads a float64 as IEEE-754 bits.
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// String reads a u32-length-prefixed string.
func (r *Reader) String() string {
	n := r.U32()
	if r.err == nil && int64(n) > int64(len(r.b)-r.off) {
		r.err = io.ErrUnexpectedEOF
		return ""
	}
	return string(r.take(int(n)))
}

// Floats reads a u32-count-prefixed []float64.
func (r *Reader) Floats() []float64 {
	n := r.U32()
	if r.err == nil && int64(n)*8 > int64(len(r.b)-r.off) {
		r.err = io.ErrUnexpectedEOF
		return nil
	}
	if r.err != nil {
		return nil
	}
	vs := make([]float64, n)
	for i := range vs {
		vs[i] = r.F64()
	}
	return vs
}

// Err returns the first decoding failure, or an error if the body has
// undecoded trailing bytes — a frame must be consumed exactly.
func (r *Reader) Err() error {
	if r.err != nil {
		return fmt.Errorf("wire: bad frame: %w", r.err)
	}
	if r.off != len(r.b) {
		return fmt.Errorf("wire: %d trailing bytes in frame", len(r.b)-r.off)
	}
	return nil
}
