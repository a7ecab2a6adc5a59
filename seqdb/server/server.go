// Package server hosts seqdb databases behind a TCP listener speaking the
// internal/wire protocol — the "load once, search many" daemon behind
// cmd/twsearchd. One Server holds one or more open DBs, so the index
// handles and buffer pools warmed by the first queries are shared by every
// following one instead of being rebuilt per process.
//
// The service discipline, in order of a request's life:
//
//   - Admission: search-shaped requests (search, knn, scan) pass a bounded
//     semaphore of Config.MaxInFlight slots. A full semaphore fails fast
//     with wire.ErrOverloaded rather than queueing — the client owns the
//     retry policy, the server's latency stays bounded.
//   - Deadlines: each admitted request runs under a context bounded by the
//     tighter of the server's Config.SearchTimeout and the client's own
//     timeout hint; cancellation aborts the search through the engine's
//     early-stop path and the deadline is mirrored onto the connection so
//     a blocked write fails with it too. Whatever the deadline, no write
//     stalls longer than Config.IdleTimeout: a client that stops reading
//     loses its connection, and its request the admission slot.
//   - Streaming: answers flow to the client in match frames of about
//     32 KiB of answers each (wire.MatchWriter), as the traversal finds
//     them; an answer set is never materialized server-side for range
//     searches.
//   - Shutdown: Shutdown stops accepting, closes the listeners, cancels
//     every in-flight search, nudges idle connections, and joins every
//     goroutine the server started before returning.
package server

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sort"
	"sync"
	"time"

	"twsearch/internal/wire"
	"twsearch/seqdb"
)

// Config tunes a Server. The zero value is serviceable: 16 in-flight
// searches, no search timeout, 5-minute idle connections, no logging.
type Config struct {
	// MaxInFlight bounds concurrently running searches (the admission
	// semaphore). <= 0 means 16.
	MaxInFlight int
	// SearchTimeout is the server-side ceiling on one search; 0 disables
	// it. A client may only tighten it, never extend it.
	SearchTimeout time.Duration
	// IdleTimeout closes connections with no request activity, and one
	// write to a client that stalls this long fails; <= 0 means 5 minutes.
	IdleTimeout time.Duration
	// MaxQueryParallelism is ignored: every search is one serial traversal
	// (HACKING.md "Searches are serial"). The field stays only because the
	// benchmark under bench/ sets it.
	MaxQueryParallelism int
	// Logf, when set, receives one access-log line per request and
	// connection event (printf-style).
	Logf func(format string, args ...any)
}

const (
	defaultMaxInFlight = 16
	defaultIdleTimeout = 5 * time.Minute
	handshakeTimeout   = 10 * time.Second
)

// ErrServerClosed is returned by Serve after Shutdown begins, mirroring
// net/http's convention.
var ErrServerClosed = errors.New("server: closed")

// Server hosts open DBs behind wire-protocol listeners. Create one with
// New, attach databases with AddDB, then run Serve per listener.
type Server struct {
	cfg Config
	sem chan struct{}

	// ctx is the drain context: every request context descends from it, so
	// one cancel aborts all in-flight searches.
	ctx    context.Context
	cancel context.CancelFunc

	// mu guards dbs, lns, conns and draining. Never held across I/O.
	mu       sync.Mutex
	dbs      map[string]*seqdb.DB
	lns      map[net.Listener]struct{}
	conns    map[net.Conn]struct{}
	draining bool

	// serveWG counts Serve calls; each Serve joins its own connection
	// goroutines before returning, so waiting on it joins everything.
	serveWG sync.WaitGroup

	met metrics

	// testHookAdmitted, when set, runs while a search request holds an
	// admission slot. Tests use it to hold the semaphore full at a known
	// point; production code never sets it.
	testHookAdmitted func()
}

// New creates a Server with no databases attached.
//
//twlint:ctx-root server-lifetime root: every request ctx derives from it and Shutdown cancels it
func New(cfg Config) *Server {
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = defaultMaxInFlight
	}
	if cfg.IdleTimeout <= 0 {
		cfg.IdleTimeout = defaultIdleTimeout
	}
	ctx, cancel := context.WithCancel(context.Background())
	return &Server{
		cfg:    cfg,
		sem:    make(chan struct{}, cfg.MaxInFlight),
		ctx:    ctx,
		cancel: cancel,
		dbs:    map[string]*seqdb.DB{},
		lns:    map[net.Listener]struct{}{},
		conns:  map[net.Conn]struct{}{},
	}
}

// AddDB mounts an open database, flat or sharded, under name. The server
// does not own the DB: closing it remains the caller's job, after Shutdown
// returns.
func (s *Server) AddDB(name string, db *seqdb.DB) error {
	if name == "" {
		return errors.New("server: empty db name")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return ErrServerClosed
	}
	if _, ok := s.dbs[name]; ok {
		return fmt.Errorf("server: db %q already mounted", name)
	}
	if d := db.Dim(); d > 1 {
		return fmt.Errorf("server: db %q is %d-dimensional, and only one-dimensional databases are served: %w", name, d, seqdb.ErrDimension)
	}
	s.dbs[name] = db
	return nil
}

// AddSharded is AddDB, under the name the benchmark in bench/ calls.
func (s *Server) AddSharded(name string, db *seqdb.ShardedDB) error {
	return s.AddDB(name, db)
}

// lookupDB resolves a request's database name. The empty name is a
// convenience that resolves iff exactly one DB is mounted.
func (s *Server) lookupDB(name string) (*seqdb.DB, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if name == "" {
		if len(s.dbs) == 1 {
			for _, db := range s.dbs {
				return db, nil
			}
		}
		return nil, &wire.Error{Code: wire.CodeNotFound,
			Msg: fmt.Sprintf("empty db name is ambiguous with %d mounted databases", len(s.dbs))}
	}
	db, ok := s.dbs[name]
	if !ok {
		return nil, &wire.Error{Code: wire.CodeNotFound, Msg: fmt.Sprintf("no database %q", name)}
	}
	return db, nil
}

// Serve accepts connections on ln until Shutdown (returning
// ErrServerClosed) or a listener failure (returning it). Every connection
// goroutine it starts is joined before it returns.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		ln.Close()
		return ErrServerClosed
	}
	s.lns[ln] = struct{}{}
	s.serveWG.Add(1)
	s.mu.Unlock()
	defer s.serveWG.Done()

	var wg sync.WaitGroup
	var retErr error
	for {
		conn, err := ln.Accept()
		if err != nil {
			if s.isDraining() {
				retErr = ErrServerClosed
			} else {
				retErr = err
			}
			break
		}
		if !s.track(conn) {
			// Shutdown began between Accept and here; the listener is
			// closed, so the next Accept fails and the loop ends.
			conn.Close()
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.serveConn(conn)
		}()
	}
	wg.Wait()
	s.mu.Lock()
	delete(s.lns, ln)
	s.mu.Unlock()
	return retErr
}

func (s *Server) isDraining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// track registers a live connection; it refuses during drain so Shutdown's
// connection sweep cannot miss one registered after it.
func (s *Server) track(conn net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return false
	}
	s.conns[conn] = struct{}{}
	s.met.connAccepted()
	return true
}

func (s *Server) untrack(conn net.Conn) {
	s.mu.Lock()
	delete(s.conns, conn)
	s.mu.Unlock()
	s.met.connClosed()
}

// Shutdown drains the server: it stops accepting, cancels in-flight
// searches (they answer with a shutdown error frame), unblocks idle
// connection reads, and waits for every goroutine to exit. If ctx expires
// first, remaining connections are force-closed; the wait still completes
// before returning ctx.Err().
func (s *Server) Shutdown(ctx context.Context) error {
	s.beginShutdown()
	done := make(chan struct{})
	go func() {
		s.serveWG.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.forceCloseConns()
		<-done
		return ctx.Err()
	}
}

// beginShutdown flips the server into draining mode exactly once: no new
// listeners, connections or requests; in-flight work is canceled.
func (s *Server) beginShutdown() {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return
	}
	s.draining = true
	lns := make([]net.Listener, 0, len(s.lns))
	for ln := range s.lns {
		lns = append(lns, ln)
	}
	conns := make([]net.Conn, 0, len(s.conns))
	for conn := range s.conns {
		conns = append(conns, conn)
	}
	s.mu.Unlock()

	s.cancel()
	for _, ln := range lns {
		ln.Close()
	}
	// Unblock reads waiting for a next request; handlers mid-response keep
	// their write path and finish their (aborted) reply before exiting.
	now := time.Now()
	for _, conn := range conns {
		conn.SetReadDeadline(now)
	}
}

func (s *Server) forceCloseConns() {
	s.mu.Lock()
	conns := make([]net.Conn, 0, len(s.conns))
	for conn := range s.conns {
		conns = append(conns, conn)
	}
	s.mu.Unlock()
	for _, conn := range conns {
		conn.Close()
	}
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// serveConn runs one connection: handshake, then a request loop until the
// peer hangs up, a fatal I/O error, or drain.
func (s *Server) serveConn(conn net.Conn) {
	defer s.untrack(conn)
	defer conn.Close()
	br := bufio.NewReaderSize(conn, 64<<10)
	sw := &stallWriter{conn: conn, stall: s.cfg.IdleTimeout}
	bw := bufio.NewWriterSize(sw, 64<<10)
	mw := wire.NewMatchWriter(bw)

	sw.until = time.Now().Add(handshakeTimeout)
	if err := conn.SetDeadline(sw.until); err != nil {
		return
	}
	if _, err := wire.ReadHello(br); err != nil {
		s.logf("conn %s: handshake: %v", conn.RemoteAddr(), err)
		return
	}
	if err := wire.WriteHello(bw); err != nil {
		return
	}
	if err := bw.Flush(); err != nil {
		return
	}
	sw.until = time.Time{}
	if err := conn.SetDeadline(time.Time{}); err != nil {
		return
	}

	for {
		if s.ctx.Err() != nil {
			return // draining: stop between requests
		}
		if err := conn.SetReadDeadline(time.Now().Add(s.cfg.IdleTimeout)); err != nil {
			return
		}
		t, body, err := wire.ReadFrame(br)
		if err != nil {
			return // clean close, idle timeout, or drain nudge
		}
		if err := s.handleRequest(sw, bw, mw, t, body); err != nil {
			s.logf("conn %s: %v", conn.RemoteAddr(), err)
			return
		}
	}
}

// reqResult carries one request's accounting to the access log and the
// metrics recorder. err is the request-level outcome already reported to
// the client; connection-fatal I/O errors travel separately.
type reqResult struct {
	op      string
	db      string
	index   string
	matches int
	stats   seqdb.SearchStats
	counted bool // stats carries real search counters
	err     error
}

// handleRequest answers one frame, flushes the response, and records the
// outcome. mw is the connection's match-stream writer over bw, and bw's over
// sw. The returned error is connection-fatal.
func (s *Server) handleRequest(sw *stallWriter, bw *bufio.Writer, mw *wire.MatchWriter, t byte, body []byte) error {
	started := time.Now()
	res, ioErr := s.serve(sw, bw, mw, t, body)
	if ioErr == nil {
		ioErr = bw.Flush()
	}
	dur := time.Since(started)
	s.met.record(res, dur)
	s.logf("access remote=%s op=%s db=%q index=%q dur=%v matches=%d err=%v",
		sw.conn.RemoteAddr(), res.op, res.db, res.index, dur.Round(time.Microsecond), res.matches, res.err)
	return ioErr
}

// serve answers one frame the same way whatever it asks: decode it (a bad
// request on failure) and find its database. A stats or list-indexes
// request then gets its one response frame. A search-shaped one is
// admitted, runs under its request context, and streams its answers to the
// client through one visitor, ending with a done or an error frame. The
// returned error is connection-fatal; res.err is the request's own outcome,
// already reported to the client.
func (s *Server) serve(sw *stallWriter, bw *bufio.Writer, mw *wire.MatchWriter, t byte, body []byte) (res reqResult, ioErr error) {
	req, err := decodeRequest(t, body)
	res.op = req.op
	if err != nil {
		res.err = &wire.Error{Code: wire.CodeBadRequest, Msg: err.Error()}
		return res, writeError(bw, res.err)
	}
	res.db, res.index = req.db, req.index
	db, err := s.lookupDB(req.db)
	if err != nil {
		res.err = err
		return res, writeError(bw, err)
	}
	if req.search == nil {
		typ, resp, err := req.reply(db)
		if err != nil {
			res.err = classify(err)
			return res, writeError(bw, res.err)
		}
		return res, wire.WriteFrame(bw, typ, resp)
	}
	release, ok := s.admit()
	if !ok {
		res.err = wire.ErrOverloaded
		return res, writeError(bw, res.err)
	}
	defer release()
	if s.testHookAdmitted != nil {
		s.testHookAdmitted()
	}
	ctx, cleanup := s.requestCtx(sw, req.timeout)
	defer cleanup()

	mw.Start()
	stats, searchErr := req.search(ctx, db, func(m seqdb.Match) bool {
		wm := wire.Match(m)
		ioErr = mw.Add(&wm)
		return ioErr == nil
	})
	res.stats, res.counted = stats, true
	if ioErr == nil {
		ioErr = mw.Flush()
	}
	res.matches = mw.Sent()
	if ioErr != nil {
		return res, ioErr
	}
	if searchErr != nil {
		res.err = classify(searchErr)
		return res, writeError(bw, res.err)
	}
	done := wire.Done{Stats: stats}
	return res, wire.WriteFrame(bw, wire.TDone, done.Encode(nil))
}

// writeError reports a request-level failure to the client.
func writeError(bw *bufio.Writer, err error) error {
	return wire.WriteFrame(bw, wire.TError, wire.EncodeError(nil, err))
}

// admit claims an admission slot, or fails fast when all are in use.
func (s *Server) admit() (release func(), ok bool) {
	select {
	case s.sem <- struct{}{}:
		return func() { <-s.sem }, true
	default:
		return nil, false
	}
}

// requestCtx derives the context one admitted search runs under: the drain
// context, bounded by the tighter of the server ceiling and the client's
// hint. Any resulting deadline is mirrored onto the connection's writer so
// a write to a stalled client fails with it; cleanup clears it again.
func (s *Server) requestCtx(sw *stallWriter, hint time.Duration) (context.Context, func()) {
	limit := s.cfg.SearchTimeout
	if hint > 0 && (limit <= 0 || hint < limit) {
		limit = hint
	}
	if limit <= 0 {
		return s.ctx, func() {}
	}
	ctx, cancel := context.WithTimeout(s.ctx, limit)
	sw.until = time.Now().Add(limit)
	return ctx, func() {
		cancel()
		sw.until = time.Time{}
	}
}

// stallWriter is a connection as its buffered writer sees it. No write may
// stall longer than stall, the idle timeout, or past until, the deadline of
// the exchange in progress when it has one: a client that stops reading in
// the middle of a stream loses its connection, and its request the
// admission slot and the pages it holds, as one that stops sending does.
type stallWriter struct {
	conn  net.Conn
	stall time.Duration
	until time.Time
}

func (w *stallWriter) Write(p []byte) (int, error) {
	deadline := time.Now().Add(w.stall)
	if !w.until.IsZero() && w.until.Before(deadline) {
		deadline = w.until
	}
	if err := w.conn.SetWriteDeadline(deadline); err != nil {
		return 0, err
	}
	return w.conn.Write(p)
}

// searchFunc runs a search-shaped request on db, handing each answer to
// visit in the order the wire carries them until visit declines one.
type searchFunc func(ctx context.Context, db *seqdb.DB, visit func(seqdb.Match) bool) (seqdb.SearchStats, error)

// request is one decoded frame: the names the access log and the metrics
// know it by, and what serving it takes — search for a search-shaped
// request, reply (the response frame, or the error to report) for the
// others.
type request struct {
	op, db, index string
	timeout       time.Duration
	search        searchFunc
	reply         func(db *seqdb.DB) (t byte, body []byte, err error)
}

// decodeRequest parses a frame of type t.
func decodeRequest(t byte, body []byte) (request, error) {
	switch t {
	case wire.TSearch:
		m, err := wire.DecodeSearchReq(body)
		return request{op: "search", db: m.DB, index: m.Index, timeout: m.Timeout,
			search: func(ctx context.Context, db *seqdb.DB, visit func(seqdb.Match) bool) (seqdb.SearchStats, error) {
				return db.SearchVisitWith(ctx, m.Index, m.Query, m.Eps, visit, seqdb.SearchOptions{})
			}}, err
	case wire.TKNN:
		m, err := wire.DecodeKNNReq(body)
		return request{op: "knn", db: m.DB, index: m.Index, timeout: m.Timeout,
			search: sorted(func(ctx context.Context, db *seqdb.DB) ([]seqdb.Match, seqdb.SearchStats, error) {
				return db.SearchKNNWith(ctx, m.Index, m.Query, m.K, seqdb.SearchOptions{})
			})}, err
	case wire.TScan:
		m, err := wire.DecodeScanReq(body)
		return request{op: "scan", db: m.DB, timeout: m.Timeout,
			search: sorted(func(ctx context.Context, db *seqdb.DB) ([]seqdb.Match, seqdb.SearchStats, error) {
				return db.SeqScanCtx(ctx, m.Query, m.Eps)
			})}, err
	case wire.TStats:
		m, err := wire.DecodeStatsReq(body)
		return request{op: "stats", db: m.DB, reply: statsResp}, err
	case wire.TListIndexes:
		m, err := wire.DecodeListIndexesReq(body)
		return request{op: "list-indexes", db: m.DB, reply: indexesResp}, err
	}
	return request{op: fmt.Sprintf("frame-%#x", t)}, fmt.Errorf("unknown frame type %#x", t)
}

// sorted is the searchFunc of a search that returns its whole answer set,
// sorted: a failed one visits nothing.
func sorted(run func(ctx context.Context, db *seqdb.DB) ([]seqdb.Match, seqdb.SearchStats, error)) searchFunc {
	return func(ctx context.Context, db *seqdb.DB, visit func(seqdb.Match) bool) (seqdb.SearchStats, error) {
		ms, stats, err := run(ctx, db)
		for _, m := range ms {
			if err != nil || !visit(m) {
				break
			}
		}
		return stats, err
	}
}

// statsResp is the TStatsResp frame of db's counters.
func statsResp(db *seqdb.DB) (byte, []byte, error) {
	resp := wire.StatsResp{Stats: db.Stats()}
	for _, p := range db.PoolStats() {
		info := wire.PoolInfo{Index: p.Index, Shards: make([]wire.PoolShard, len(p.Shards))}
		for i, sh := range p.Shards {
			info.Shards[i] = wire.PoolShard{Hits: sh.Hits, Misses: sh.Misses, Evictions: sh.Evictions}
		}
		resp.Pools = append(resp.Pools, info)
	}
	return wire.TStatsResp, resp.Encode(nil), nil
}

// indexesResp is the TIndexes frame listing db's indexes by name.
func indexesResp(db *seqdb.DB) (byte, []byte, error) {
	names := db.Indexes()
	sort.Strings(names)
	var resp wire.IndexesResp
	for _, name := range names {
		info, err := db.Index(name)
		if err != nil {
			return 0, nil, err
		}
		resp.Indexes = append(resp.Indexes, wire.IndexInfo{
			Name:         info.Name,
			Method:       string(info.Spec.Method),
			Categories:   info.Spec.Categories,
			Sparse:       info.Spec.Sparse,
			Window:       info.Spec.Window,
			MinAnswerLen: info.Spec.MinAnswerLen,
			SizeBytes:    info.SizeBytes,
			Leaves:       info.Leaves,
			Nodes:        info.Nodes,
			Encoding:     uint8(info.Spec.Encoding),
			PoolPages:    info.Spec.PoolPages,
		})
	}
	return wire.TIndexes, resp.Encode(nil), nil
}

// classify folds a search error into its wire shape: lookup failures are
// not-found, context outcomes keep their deadline/shutdown meaning, a
// scatter-gather partial failure over a sharded mount becomes
// shard-unavailable carrying the answered shards, a failed read of an index
// file is internal — the server's files are at fault, not the request — and
// anything else is a bad request from the client's point of view (the
// search engine validates inputs; reading its files is the only way it
// fails on its own). The context cases run first even for partial failures:
// a request whose deadline expired mid-fan-out is a deadline outcome, not a
// shard outage.
func classify(err error) error {
	switch {
	case errors.Is(err, seqdb.ErrNoIndex):
		return &wire.Error{Code: wire.CodeNotFound, Msg: err.Error()}
	case errors.Is(err, context.DeadlineExceeded):
		return &wire.Error{Code: wire.CodeDeadline, Msg: err.Error()}
	case errors.Is(err, context.Canceled):
		return &wire.Error{Code: wire.CodeShutdown, Msg: err.Error()}
	}
	var pe *seqdb.PartialError
	if errors.As(err, &pe) {
		return &wire.Error{
			Code:     wire.CodeShardUnavailable,
			Msg:      err.Error(),
			Answered: append([]int(nil), pe.Answered...),
		}
	}
	if errors.Is(err, seqdb.ErrIndexRead) {
		return &wire.Error{Code: wire.CodeInternal, Msg: err.Error()}
	}
	return &wire.Error{Code: wire.CodeBadRequest, Msg: err.Error()}
}
