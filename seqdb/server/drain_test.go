package server

import (
	"context"
	"errors"
	"io"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"twsearch/internal/wire"
	"twsearch/seqdb"
)

// pipeListener hands the server one end of in-memory connections
// (net.Pipe). A pipe buffers nothing, so a server write blocks until the
// client reads it: a test can hold a connection goroutine at a known point.
type pipeListener struct {
	conns  chan net.Conn
	closed chan struct{}
	once   sync.Once
}

func newPipeListener() *pipeListener {
	return &pipeListener{conns: make(chan net.Conn), closed: make(chan struct{})}
}

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.closed:
		return nil, net.ErrClosed
	}
}

func (l *pipeListener) Close() error {
	l.once.Do(func() { close(l.closed) })
	return nil
}

func (l *pipeListener) Addr() net.Addr { return pipeAddr{} }

type pipeAddr struct{}

func (pipeAddr) Network() string { return "pipe" }
func (pipeAddr) String() string  { return "pipe" }

// waitUntil polls the goroutine stacks until some goroutine in the frame fn
// (such as "server.(*Server).Serve") is also in the frame at (what it
// blocks on), or until done is closed, and fails the test if neither
// happens within ten seconds.
func waitUntil(t *testing.T, fn, at string, done <-chan struct{}) {
	t.Helper()
	buf := make([]byte, 1<<20)
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		select {
		case <-done:
			return
		default:
		}
		for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
			if strings.Contains(g, fn+"(") && strings.Contains(g, at) {
				return
			}
		}
	}
	t.Fatalf("no goroutine in %s reached %s", fn, at)
}

// served is what Serve left behind at the moment it returned.
type served struct {
	err          error
	tracked, lns int
	active       int
}

// stalledServer runs Serve on a pipeListener with one connection whose
// goroutine is blocked writing the server's hello to a client that does
// not read it — a block a drain does not lift, since a drain only cuts
// reads. It returns the client end, and Serve's outcome, recorded as Serve
// returns, and readable once returned is closed.
func stalledServer(t *testing.T) (s *Server, cli net.Conn, r *served, returned <-chan struct{}) {
	t.Helper()
	s = New(Config{})
	ln := newPipeListener()
	r = &served{}
	done := make(chan struct{})
	go func() {
		defer close(done)
		r.err = s.Serve(ln)
		s.mu.Lock()
		r.tracked, r.lns = len(s.conns), len(s.lns)
		s.mu.Unlock()
		r.active = s.Metrics().ActiveConns
	}()
	srv, cli := net.Pipe()
	t.Cleanup(func() { cli.Close() })
	ln.conns <- srv
	if err := wire.WriteHello(cli); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "server.(*Server).serveConn", "net.(*pipe).write", nil)
	return s, cli, r, done
}

// TestServeJoinsConnections: Serve returns only after the goroutines of
// its connections have exited, on a drain too — when it returns, no
// connection is tracked and ActiveConns is 0.
func TestServeJoinsConnections(t *testing.T) {
	leakCheck(t)
	s, cli, r, returned := stalledServer(t)
	shutdown := make(chan error, 1)
	go func() { shutdown <- s.Shutdown(context.Background()) }()
	// Serve parks joining the stalled connection, or returns without it.
	waitUntil(t, "server.(*Server).Serve", "sync.(*WaitGroup).Wait", returned)
	cli.Close()
	<-returned
	if !errors.Is(r.err, ErrServerClosed) {
		t.Errorf("Serve returned %v, want ErrServerClosed", r.err)
	}
	if r.tracked != 0 || r.active != 0 {
		t.Errorf("Serve returned with %d connections tracked and ActiveConns %d, want both 0", r.tracked, r.active)
	}
	if err := <-shutdown; err != nil {
		t.Errorf("Shutdown: %v", err)
	}
}

// TestShutdownPastDeadlineJoins: a Shutdown whose context ends before the
// drain does force-closes the connections and still returns only after
// Serve has — its listener forgotten, no connection tracked.
func TestShutdownPastDeadlineJoins(t *testing.T) {
	leakCheck(t)
	s, _, r, returned := stalledServer(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := s.Shutdown(ctx); !errors.Is(err, context.Canceled) {
		t.Errorf("Shutdown = %v, want context.Canceled", err)
	}
	s.mu.Lock()
	tracked, lns := len(s.conns), len(s.lns)
	s.mu.Unlock()
	if tracked != 0 || lns != 0 {
		t.Errorf("Shutdown returned with %d connections and %d listeners tracked: Serve was still running", tracked, lns)
	}
	<-returned
	if !errors.Is(r.err, ErrServerClosed) {
		t.Errorf("Serve returned %v, want ErrServerClosed", r.err)
	}
}

// TestRefusalsReleaseLock: every call a draining server refuses returns
// with the server's lock free.
func TestRefusalsReleaseLock(t *testing.T) {
	s := New(Config{})
	ctx := context.Background()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	srv, cli := net.Pipe()
	defer srv.Close()
	defer cli.Close()
	for _, c := range []struct {
		op   string
		call func() bool // reports whether the call refused
	}{
		{"Shutdown again", func() bool { return s.Shutdown(ctx) == nil }},
		{"Serve", func() bool { return s.Serve(newPipeListener()) == ErrServerClosed }},
		{"track", func() bool { return !s.track(srv) }},
		{"AddDB", func() bool { return s.AddDB("main", nil) == ErrServerClosed }},
	} {
		if !c.call() {
			t.Errorf("%s on a drained server was not refused", c.op)
		}
		if !s.mu.TryLock() {
			t.Errorf("%s returned holding the server's lock", c.op)
		}
		s.mu.Unlock() // ours, or the one the call kept
	}
}

// TestStalledReaderReleasesSlot: a client that stops reading in the middle
// of an answer stream, under the default Config but for a short
// IdleTimeout, does not keep its request running. The stalled write fails
// within the idle timeout, the handler returns its admission slot and its
// pages, and Shutdown then finishes within its context, with no goroutine
// left behind.
func TestStalledReaderReleasesSlot(t *testing.T) {
	leakCheck(t)
	built := newTestDB(t)
	if err := built.Save(); err != nil {
		t.Fatal(err)
	}
	// Through the pool, so that a read in flight holds pages.
	db, err := seqdb.OpenWith(built.Dir(), seqdb.OpenOptions{Backend: seqdb.BackendPool})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	const idle = 100 * time.Millisecond
	s := New(Config{IdleTimeout: idle})
	if err := s.AddDB("main", db); err != nil {
		t.Fatal(err)
	}
	ln := newPipeListener()
	serveErr := make(chan error, 1)
	go func() { serveErr <- s.Serve(ln) }()
	srv, cli := net.Pipe()
	defer cli.Close()
	t.Cleanup(func() { // on a failure, before the leak check
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		s.Shutdown(ctx)
	})
	ln.conns <- srv
	if err := wire.WriteHello(cli); err != nil {
		t.Fatal(err)
	}
	if _, err := wire.ReadHello(cli); err != nil {
		t.Fatal(err)
	}
	// Every subsequence is an answer: megabytes of match frames, far more
	// than the server's write buffer holds.
	req := wire.SearchReq{DB: "main", Index: "fast", Eps: 1e9, Query: testQuery(built, "seq-04", 0, 4)}
	if err := wire.WriteFrame(cli, wire.TSearch, req.Encode(nil)); err != nil {
		t.Fatal(err)
	}
	// Read into the first batch, then stop reading.
	if _, err := io.ReadFull(cli, make([]byte, 1000)); err != nil {
		t.Fatal(err)
	}
	started := time.Now()
	for len(s.sem) != 0 || db.PinnedPages() != 0 {
		if time.Since(started) > 50*idle {
			t.Fatalf("after %v the stalled request still holds %d slots and %d pages", time.Since(started), len(s.sem), db.PinnedPages())
		}
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*idle)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if err := <-serveErr; !errors.Is(err, ErrServerClosed) {
		t.Fatalf("Serve returned %v, want ErrServerClosed", err)
	}
}
