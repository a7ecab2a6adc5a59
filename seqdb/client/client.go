// Package client is the reconnecting twsearchd client: the network-side
// mirror of the seqdb search API. A Client owns one connection, redials
// transparently on the next call after any transport failure, and maps
// context deadlines onto both the socket and the server's own per-request
// deadline, so a timeout fires on whichever side notices first. A request
// whose context ends, by its deadline or by a cancel, aborts at once: the
// socket read or write in flight fails, the handshake of a redial
// included.
//
// A Client serializes its calls (the protocol is one request at a time per
// connection); for concurrent query streams, use one Client per goroutine
// — the server side is built for many connections.
//
// Answers arrive in batched match frames (wire.MatchBatch). The client reads
// each frame into a buffer it owns and decodes the answers where they lie,
// sharing one SeqID string across a run of answers in one sequence; the
// calls that return an answer set gather it in fixed-size chunks and copy
// it once into an exactly sized slice.
package client

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"sync"
	"time"

	"twsearch/internal/wire"
	"twsearch/seqdb"
)

// dialTimeout bounds connection establishment, the handshake included.
const dialTimeout = 5 * time.Second

// Client is a twsearchd connection handle. Safe for concurrent use;
// requests serialize on the single underlying connection.
//
// Between calls a Client keeps, beside the connection and its two 64 KiB
// bufio buffers, the 64 KiB buffer match frames are read into, the last
// answer's SeqID, and the chunks of the largest answer set a call gathered,
// up to keptChunks of chunkLen answers (about 384 KiB). Close releases the
// connection; the buffers go with the Client.
type Client struct {
	addr string

	// mu serializes requests and guards the state below.
	mu   sync.Mutex
	conn net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer

	// frame is the buffer match-stream frames up to its capacity are read
	// into; dec decodes their answers in place.
	frame []byte
	dec   wire.MatchDecoder
	// chunks gather a materialized answer set (collectMatchStream).
	chunks [][]seqdb.Match

	// unwatch stops the watcher begin set on the request's context.
	unwatch func() bool
}

// expired is a deadline long past: set on a connection, it fails the read
// or write in flight at once.
var expired = time.Unix(1, 0)

// frameBuf is the capacity of Client.frame: a whole batch of answers and
// the record that filled it (wire.MatchWriter).
const frameBuf = 64 << 10

// chunkLen is the answers in one gathering chunk; keptChunks bounds the
// chunks a Client keeps between calls.
const (
	chunkLen   = 1024
	keptChunks = 8
)

// Dial connects to a twsearchd server and validates the handshake. The
// returned client redials automatically if the connection later fails.
//
//twlint:ctx-root connection setup outside any request; the dial deadline is dialTimeout, not a caller ctx
func Dial(addr string) (*Client, error) {
	c := &Client{addr: addr}
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.ensureConn(context.Background()); err != nil {
		return nil, err
	}
	return c, nil
}

// Close releases the connection. The client is not usable afterwards
// except by the zero-cost guarantee that a later call simply redials.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.dropLocked()
}

// ensureConn dials and performs the handshake if no live connection
// exists. The handshake runs under the earlier of dialTimeout and ctx's
// deadline, and fails when ctx ends. Caller holds c.mu.
func (c *Client) ensureConn(ctx context.Context) error {
	if c.conn != nil {
		return nil
	}
	d := net.Dialer{Timeout: dialTimeout}
	conn, err := d.DialContext(ctx, "tcp", c.addr)
	if err != nil {
		return fmt.Errorf("client: dialing %s: %w", c.addr, err)
	}
	c.conn, c.br, c.bw = conn, bufio.NewReaderSize(conn, 64<<10), bufio.NewWriterSize(conn, 64<<10)
	deadline := time.Now().Add(dialTimeout)
	if d, ok := ctx.Deadline(); ok && d.Before(deadline) {
		deadline = d
	}
	if err := c.watch(ctx, deadline); err != nil {
		return c.fail(ctx, err)
	}
	err = wire.WriteHello(c.bw)
	if err == nil {
		err = c.bw.Flush()
	}
	if err == nil {
		_, err = wire.ReadHello(c.br)
	}
	if err != nil {
		return c.fail(ctx, fmt.Errorf("handshake: %w", err))
	}
	if !c.finish() {
		return c.fail(ctx, errors.New("handshake: context ended"))
	}
	return nil
}

// watch bounds the connection by ctx until finish or dropLocked: deadline
// now, and an expired one the moment ctx ends, so a cancel without a
// deadline aborts a stalled read or write too. Caller holds c.mu.
func (c *Client) watch(ctx context.Context, deadline time.Time) error {
	if err := c.conn.SetDeadline(deadline); err != nil { // zero time clears
		return err
	}
	conn := c.conn
	c.unwatch = context.AfterFunc(ctx, func() { conn.SetDeadline(expired) })
	return nil
}

// dropLocked closes and forgets the connection; the next call redials.
// Caller holds c.mu.
func (c *Client) dropLocked() error {
	if c.unwatch != nil {
		c.unwatch()
		c.unwatch = nil
	}
	if c.conn == nil {
		return nil
	}
	err := c.conn.Close()
	c.conn, c.br, c.bw = nil, nil, nil
	return err
}

// fail drops the connection after a transport error and shapes the
// returned error: if the caller's context expired, that is the cause worth
// reporting, not the socket-level symptom. Caller holds c.mu.
func (c *Client) fail(ctx context.Context, err error) error {
	c.dropLocked()
	if ctxErr := ctx.Err(); ctxErr != nil {
		return fmt.Errorf("client: %w: %w", err, ctxErr)
	}
	return fmt.Errorf("client: %w", err)
}

// begin readies the connection for one request under ctx: redial if
// needed, watch ctx on the socket (its deadline, and its end), and return
// the remaining budget as the server-side timeout hint. Caller holds c.mu.
func (c *Client) begin(ctx context.Context) (time.Duration, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	if err := c.ensureConn(ctx); err != nil {
		return 0, err
	}
	var hint time.Duration
	deadline, ok := ctx.Deadline()
	if ok {
		hint = time.Until(deadline)
		if hint <= 0 {
			return 0, context.DeadlineExceeded
		}
	}
	if err := c.watch(ctx, deadline); err != nil {
		return 0, c.fail(ctx, err)
	}
	return hint, nil
}

// send writes one request frame. Caller holds c.mu.
func (c *Client) send(ctx context.Context, t byte, body []byte) error {
	if err := wire.WriteFrame(c.bw, t, body); err != nil {
		return c.fail(ctx, err)
	}
	if err := c.bw.Flush(); err != nil {
		return c.fail(ctx, err)
	}
	return nil
}

// finish stops watching the request's context and clears the socket
// deadline. When the watcher has already fired, the expired deadline may
// land at any moment, so the connection is dropped instead, and finish
// reports false. Caller holds c.mu.
func (c *Client) finish() bool {
	if c.unwatch != nil && !c.unwatch() {
		c.dropLocked()
		return false
	}
	c.unwatch = nil
	if c.conn != nil {
		c.conn.SetDeadline(time.Time{})
	}
	return true
}

// SearchVisitWith streams a range search's answers to fn as they arrive
// from the server; returning false stops the stream. Stopping early drops
// the connection — that is the wire's cancellation signal; the server
// aborts the search when its next write fails — and the client redials on
// the next call. opts changes nothing (see seqdb.SearchOptions).
func (c *Client) SearchVisitWith(ctx context.Context, db, index string, q []float64, eps float64, fn func(seqdb.Match) bool, opts seqdb.SearchOptions) (seqdb.SearchStats, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.sendSearch(ctx, db, index, q, eps); err != nil {
		return seqdb.SearchStats{}, err
	}
	return c.readMatchStream(ctx, fn)
}

// sendSearch sends a range search request under ctx. Caller holds c.mu.
func (c *Client) sendSearch(ctx context.Context, db, index string, q []float64, eps float64) error {
	hint, err := c.begin(ctx)
	if err != nil {
		return err
	}
	req := wire.SearchReq{DB: db, Index: index, Eps: eps, Timeout: hint, Query: q}
	return c.send(ctx, wire.TSearch, req.Encode(nil))
}

// readMatchStream consumes TMatch frames until TDone or TError, handing
// their answers to fn in stream order. Frames are read into c.frame and
// decoded in place, so the stream allocates per frame larger than the
// buffer and per run of answers in one sequence (the SeqID string), not per
// answer. Caller holds c.mu and has sent a search-shaped request.
func (c *Client) readMatchStream(ctx context.Context, fn func(seqdb.Match) bool) (seqdb.SearchStats, error) {
	var stats seqdb.SearchStats
	if c.frame == nil {
		c.frame = make([]byte, 0, frameBuf)
	}
	var wm wire.Match
	for {
		t, body, err := wire.ReadFrameInto(c.br, c.frame)
		if err != nil {
			return stats, c.fail(ctx, err)
		}
		switch t {
		case wire.TMatch:
			if _, err := c.dec.Reset(body); err != nil {
				return stats, c.fail(ctx, err)
			}
			for c.dec.Next(&wm) {
				if !fn(seqdb.Match{SeqID: wm.SeqID, Seq: wm.Seq, Start: wm.Start, End: wm.End, Distance: wm.Distance}) {
					c.dropLocked()
					return stats, nil
				}
			}
			if err := c.dec.Err(); err != nil {
				return stats, c.fail(ctx, err)
			}
		case wire.TDone:
			d, err := wire.DecodeDone(body)
			if err != nil {
				return stats, c.fail(ctx, err)
			}
			c.finish()
			return d.Stats, nil
		case wire.TError:
			e, err := wire.DecodeError(body)
			if err != nil {
				return stats, c.fail(ctx, err)
			}
			c.finish()
			return stats, e
		default:
			return stats, c.fail(ctx, fmt.Errorf("unexpected frame type %#x in match stream", t))
		}
	}
}

// SearchWith runs a range search and returns the full answer set in the
// order the server streams it, (sequence, start, end) — the same order,
// distances and stats the in-process seqdb.DB.SearchWith produces. See
// SearchVisitWith for opts.
func (c *Client) SearchWith(ctx context.Context, db, index string, q []float64, eps float64, opts seqdb.SearchOptions) ([]seqdb.Match, seqdb.SearchStats, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.sendSearch(ctx, db, index, q, eps); err != nil {
		return nil, seqdb.SearchStats{}, err
	}
	return c.collectMatchStream(ctx)
}

// SearchKNNWith returns the k nearest subsequences; order mirrors the
// in-process SearchKNNWith (position order). See SearchVisitWith for opts.
// A non-positive k is refused here, with the engine's wording, and so is a
// k above math.MaxInt32: the wire carries k as a uint32, where a negative
// count would read as billions and a larger one would wrap.
func (c *Client) SearchKNNWith(ctx context.Context, db, index string, q []float64, k int, opts seqdb.SearchOptions) ([]seqdb.Match, seqdb.SearchStats, error) {
	if k <= 0 {
		return nil, seqdb.SearchStats{}, errors.New("client: k must be positive")
	}
	if k > math.MaxInt32 {
		return nil, seqdb.SearchStats{}, fmt.Errorf("client: k = %d, and the wire carries at most %d", k, math.MaxInt32)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	hint, err := c.begin(ctx)
	if err != nil {
		return nil, seqdb.SearchStats{}, err
	}
	req := wire.KNNReq{DB: db, Index: index, K: k, Timeout: hint, Query: q}
	if err := c.send(ctx, wire.TKNN, req.Encode(nil)); err != nil {
		return nil, seqdb.SearchStats{}, err
	}
	return c.collectMatchStream(ctx)
}

// SeqScan runs the exhaustive baseline server-side.
func (c *Client) SeqScan(ctx context.Context, db string, q []float64, eps float64) ([]seqdb.Match, seqdb.SearchStats, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	hint, err := c.begin(ctx)
	if err != nil {
		return nil, seqdb.SearchStats{}, err
	}
	req := wire.ScanReq{DB: db, Eps: eps, Timeout: hint, Query: q}
	if err := c.send(ctx, wire.TScan, req.Encode(nil)); err != nil {
		return nil, seqdb.SearchStats{}, err
	}
	return c.collectMatchStream(ctx)
}

// collectMatchStream materializes a match stream in server order: the
// answers fill chunks of chunkLen, and one exactly sized slice receives
// them at the end — one copy per answer, where a growing slice copies each
// answer again at every doubling. The first keptChunks chunks stay with
// the Client for its next call. Caller holds c.mu.
func (c *Client) collectMatchStream(ctx context.Context) ([]seqdb.Match, seqdb.SearchStats, error) {
	n := 0
	stats, err := c.readMatchStream(ctx, func(m seqdb.Match) bool {
		i := n / chunkLen
		if i == len(c.chunks) {
			c.chunks = append(c.chunks, make([]seqdb.Match, chunkLen))
		}
		c.chunks[i][n%chunkLen] = m
		n++
		return true
	})
	var ms []seqdb.Match
	if err == nil {
		ms = make([]seqdb.Match, n)
		for i := 0; i*chunkLen < n; i++ {
			copy(ms[i*chunkLen:], c.chunks[i])
		}
	}
	if len(c.chunks) > keptChunks {
		clear(c.chunks[keptChunks:])
		c.chunks = c.chunks[:keptChunks]
	}
	return ms, stats, err
}

// Stats returns the dataset summary of a mounted DB.
func (c *Client) Stats(ctx context.Context, db string) (seqdb.Stats, error) {
	resp, err := c.statsResp(ctx, db)
	return resp.Stats, err
}

// StatsPools returns the dataset summary of a mounted DB together with each
// open index's buffer-pool shard counters.
func (c *Client) StatsPools(ctx context.Context, db string) (seqdb.Stats, []seqdb.IndexPoolStats, error) {
	resp, err := c.statsResp(ctx, db)
	if err != nil {
		return seqdb.Stats{}, nil, err
	}
	pools := make([]seqdb.IndexPoolStats, len(resp.Pools))
	for i, p := range resp.Pools {
		shards := make([]seqdb.PoolShardStats, len(p.Shards))
		for j, sh := range p.Shards {
			shards[j] = seqdb.PoolShardStats{Hits: sh.Hits, Misses: sh.Misses, Evictions: sh.Evictions}
		}
		pools[i] = seqdb.IndexPoolStats{Index: p.Index, Shards: shards}
	}
	return resp.Stats, pools, nil
}

func (c *Client) statsResp(ctx context.Context, db string) (resp wire.StatsResp, err error) {
	req := wire.StatsReq{DB: db}
	err = c.roundTrip(ctx, wire.TStats, req.Encode(nil), wire.TStatsResp, func(body []byte) (err error) {
		resp, err = wire.DecodeStatsResp(body)
		return err
	})
	return resp, err
}

// ListIndexes returns the open indexes of a mounted DB, sorted by name.
func (c *Client) ListIndexes(ctx context.Context, db string) ([]seqdb.IndexInfo, error) {
	var resp wire.IndexesResp
	req := wire.ListIndexesReq{DB: db}
	if err := c.roundTrip(ctx, wire.TListIndexes, req.Encode(nil), wire.TIndexes, func(body []byte) (err error) {
		resp, err = wire.DecodeIndexesResp(body)
		return err
	}); err != nil {
		return nil, err
	}
	out := make([]seqdb.IndexInfo, len(resp.Indexes))
	for i, ix := range resp.Indexes {
		out[i] = seqdb.IndexInfo{
			Name: ix.Name,
			Spec: seqdb.IndexSpec{
				Method:       seqdb.Method(ix.Method),
				Categories:   ix.Categories,
				Sparse:       ix.Sparse,
				Window:       ix.Window,
				MinAnswerLen: ix.MinAnswerLen,
				PoolPages:    ix.PoolPages,
				Encoding:     seqdb.Encoding(ix.Encoding),
			},
			SizeBytes: ix.SizeBytes,
			Leaves:    ix.Leaves,
			Nodes:     ix.Nodes,
		}
	}
	return out, nil
}

// roundTrip runs one request answered by a single frame: it sends the
// request frame of type t under ctx and reads the answer, handing a frame of
// type want to decode and returning an error frame as the error. A
// transport failure, an undecodable answer or a frame of any other type
// drops the connection.
func (c *Client) roundTrip(ctx context.Context, t byte, req []byte, want byte, decode func(body []byte) error) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, err := c.begin(ctx); err != nil {
		return err
	}
	if err := c.send(ctx, t, req); err != nil {
		return err
	}
	got, body, err := wire.ReadFrame(c.br)
	if err != nil {
		return c.fail(ctx, err)
	}
	switch got {
	case want:
		err = decode(body)
	case wire.TError:
		var e *wire.Error
		if e, err = wire.DecodeError(body); err == nil {
			c.finish()
			return e
		}
	default:
		err = fmt.Errorf("unexpected frame type %#x", got)
	}
	if err != nil {
		return c.fail(ctx, err)
	}
	c.finish()
	return nil
}
