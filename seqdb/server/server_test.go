package server

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"twsearch/internal/wire"
	"twsearch/seqdb"
	"twsearch/seqdb/client"
)

// leakCheck snapshots the goroutine count and registers a cleanup that
// fails the test if, after everything else tears down, more goroutines
// remain than before. Registered first so it runs last.
func leakCheck(t *testing.T) {
	t.Helper()
	before := runtime.NumGoroutine()
	t.Cleanup(func() {
		deadline := time.Now().Add(5 * time.Second)
		for {
			n := runtime.NumGoroutine()
			if n <= before {
				return
			}
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<16)
				t.Fatalf("goroutine leak: %d before, %d after\n%s",
					before, n, buf[:runtime.Stack(buf, true)])
			}
			time.Sleep(10 * time.Millisecond)
		}
	})
}

// newTestDB builds a deterministic database with one sparse max-entropy
// index, the configuration the paper recommends.
func newTestDB(t *testing.T) *seqdb.DB {
	t.Helper()
	db, err := seqdb.Create(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		vals := make([]float64, 80)
		for j := range vals {
			vals[j] = 5*math.Sin(float64(j)/7+float64(i)) + float64(i%5)
		}
		if err := db.Add(fmt.Sprintf("seq-%02d", i), vals); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.BuildIndex("fast", seqdb.IndexSpec{
		Method: seqdb.MethodMaxEntropy, Categories: 10, Sparse: true,
	}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

// start runs the server on a loopback port and tears it down at test end,
// asserting the drain is clean.
func start(t *testing.T, s *Server) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	errCh := make(chan error, 1)
	go func() { errCh <- s.Serve(ln) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("Shutdown: %v", err)
		}
		if err := <-errCh; !errors.Is(err, ErrServerClosed) {
			t.Errorf("Serve returned %v, want ErrServerClosed", err)
		}
	})
	return ln.Addr().String()
}

func testQuery(db *seqdb.DB, seq string, lo, hi int) []float64 {
	vals := db.Values(seq)
	return append([]float64(nil), vals[lo:hi]...)
}

// matchesBitIdentical reports whether two answer sets are byte-identical:
// same order, same positions, same float64 bits.
func matchesBitIdentical(a, b []seqdb.Match) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].SeqID != b[i].SeqID || a[i].Seq != b[i].Seq ||
			a[i].Start != b[i].Start || a[i].End != b[i].End ||
			math.Float64bits(a[i].Distance) != math.Float64bits(b[i].Distance) {
			return false
		}
	}
	return true
}

func TestServerSearchMatchesInProcess(t *testing.T) {
	leakCheck(t)
	db := newTestDB(t)
	s := New(Config{})
	if err := s.AddDB("main", db); err != nil {
		t.Fatal(err)
	}
	addr := start(t, s)

	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ctx := context.Background()
	q := testQuery(db, "seq-03", 10, 30)
	const eps = 4.0

	want, wantStats, err := db.SearchWith(context.Background(), "fast", q, eps, seqdb.SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("test query found no matches; pick a better query")
	}
	got, gotStats, err := c.SearchWith(ctx, "main", "fast", q, eps, seqdb.SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !matchesBitIdentical(want, got) {
		t.Fatalf("server answers differ from in-process:\n got %v\nwant %v", got, want)
	}
	if gotStats.Answers != wantStats.Answers {
		t.Fatalf("answer counts differ: %d != %d", gotStats.Answers, wantStats.Answers)
	}

	// The empty DB name resolves to the single mounted database.
	got2, _, err := c.SearchWith(ctx, "", "fast", q, eps, seqdb.SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !matchesBitIdentical(want, got2) {
		t.Fatal("empty-db-name search differs")
	}

	// Scan and KNN mirror their in-process counterparts too.
	wantScan, _, err := db.SeqScanCtx(context.Background(), q, eps)
	if err != nil {
		t.Fatal(err)
	}
	gotScan, _, err := c.SeqScan(ctx, "main", q, eps)
	if err != nil {
		t.Fatal(err)
	}
	if !matchesBitIdentical(wantScan, gotScan) {
		t.Fatal("server scan differs from in-process scan")
	}
	wantKNN, _, err := db.SearchKNNWith(context.Background(), "fast", q, 5, seqdb.SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	gotKNN, _, err := c.SearchKNNWith(ctx, "main", "fast", q, 5, seqdb.SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !matchesBitIdentical(wantKNN, gotKNN) {
		t.Fatal("server knn differs from in-process knn")
	}

	// Stats and index listings round-trip.
	st, err := c.Stats(ctx, "main")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(st, db.Stats()) {
		t.Fatalf("stats differ: %+v != %+v", st, db.Stats())
	}
	infos, err := c.ListIndexes(ctx, "main")
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 1 || infos[0].Name != "fast" || !infos[0].Spec.Sparse {
		t.Fatalf("index listing wrong: %+v", infos)
	}

	m := s.Metrics()
	if m.Requests == 0 || m.PerOp["search"] != 2 || m.MatchesStreamed == 0 {
		t.Fatalf("metrics not recording: %+v", m)
	}
	if m.P50 <= 0 || m.P99 < m.P50 {
		t.Fatalf("latency percentiles wrong: p50=%v p99=%v", m.P50, m.P99)
	}
}

func TestServerErrorsAreTyped(t *testing.T) {
	leakCheck(t)
	db := newTestDB(t)
	s := New(Config{})
	if err := s.AddDB("main", db); err != nil {
		t.Fatal(err)
	}
	addr := start(t, s)
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	q := testQuery(db, "seq-00", 0, 10)

	_, _, err = c.SearchWith(ctx, "nope", "fast", q, 1, seqdb.SearchOptions{})
	var we *wire.Error
	if !errors.As(err, &we) || we.Code != wire.CodeNotFound {
		t.Fatalf("unknown db error = %v, want not-found", err)
	}
	_, _, err = c.SearchWith(ctx, "main", "nope", q, 1, seqdb.SearchOptions{})
	if !errors.As(err, &we) || we.Code != wire.CodeNotFound {
		t.Fatalf("unknown index error = %v, want not-found", err)
	}
	// An invalid query is a bad request, and the connection survives it.
	_, _, err = c.SearchWith(ctx, "main", "fast", nil, 1, seqdb.SearchOptions{})
	if !errors.As(err, &we) || we.Code != wire.CodeBadRequest {
		t.Fatalf("empty query error = %v, want bad-request", err)
	}
	// So are a NaN threshold and a NaN or infinite query value, on every
	// operation that takes them.
	_, _, err = c.SearchWith(ctx, "main", "fast", q, math.NaN(), seqdb.SearchOptions{})
	if !errors.As(err, &we) || we.Code != wire.CodeBadRequest {
		t.Fatalf("NaN eps error = %v, want bad-request", err)
	}
	_, _, err = c.SeqScan(ctx, "main", q, math.NaN())
	if !errors.As(err, &we) || we.Code != wire.CodeBadRequest {
		t.Fatalf("NaN eps scan error = %v, want bad-request", err)
	}
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		bad := append([]float64{v}, q...)
		_, _, err = c.SearchWith(ctx, "main", "fast", bad, 1, seqdb.SearchOptions{})
		if !errors.As(err, &we) || we.Code != wire.CodeBadRequest {
			t.Fatalf("query value %v error = %v, want bad-request", v, err)
		}
		_, _, err = c.SearchKNNWith(ctx, "main", "fast", bad, 3, seqdb.SearchOptions{})
		if !errors.As(err, &we) || we.Code != wire.CodeBadRequest {
			t.Fatalf("k-NN query value %v error = %v, want bad-request", v, err)
		}
	}
	if _, _, err := c.SearchWith(ctx, "main", "fast", q, 1, seqdb.SearchOptions{}); err != nil {
		t.Fatalf("connection did not survive request errors: %v", err)
	}
}

// TestServerTreeReadFailureIsInternal: a search whose index file was cut
// after the DB opened it fails reading a page — a fault of the server's
// files, so the client sees CodeInternal, not bad-request — the page the
// failed read was for is not left pinned, and another mounted DB goes on
// answering.
func TestServerTreeReadFailureIsInternal(t *testing.T) {
	leakCheck(t)
	dir := newTestDB(t).Dir()
	// Reopen the built database so its pool holds no page of the tree yet.
	cut, err := seqdb.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer cut.Close()
	tree := filepath.Join(dir, "idx-fast.twt")
	st, err := os.Stat(tree)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(tree, st.Size()/2/4096*4096); err != nil {
		t.Fatal(err)
	}
	healthy := newTestDB(t)
	s := New(Config{})
	if err := s.AddDB("cut", cut); err != nil {
		t.Fatal(err)
	}
	if err := s.AddDB("healthy", healthy); err != nil {
		t.Fatal(err)
	}
	c, err := client.Dial(start(t, s))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	q := testQuery(healthy, "seq-03", 10, 30)

	_, _, err = c.SearchWith(ctx, "cut", "fast", q, 4, seqdb.SearchOptions{})
	var we *wire.Error
	if !errors.As(err, &we) || we.Code != wire.CodeInternal {
		t.Fatalf("search of a cut tree: %v, want an internal error", err)
	}
	if !strings.Contains(we.Msg, "unexpected EOF") {
		t.Errorf("a short page read reads %q, want unexpected EOF", we.Msg)
	}
	if n := cut.PinnedPages(); n != 0 {
		t.Errorf("%d pages pinned after the failed search", n)
	}
	want, _, err := healthy.SearchWith(ctx, "fast", q, 4, seqdb.SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := c.SearchWith(ctx, "healthy", "fast", q, 4, seqdb.SearchOptions{})
	if err != nil || !matchesBitIdentical(got, want) {
		t.Fatalf("the other DB after the failure: %d answers, %v; want %d", len(got), err, len(want))
	}
}

// TestServerKNNRejectsBadK: k travels as a uint32, so a non-positive k must
// die before it is sent — with the in-process call's wording — and a frame
// that carries one anyway (k = -1 reads as 0xFFFFFFFF) is a bad request,
// not a search for four billion neighbors.
func TestServerKNNRejectsBadK(t *testing.T) {
	leakCheck(t)
	db := newTestDB(t)
	s := New(Config{})
	if err := s.AddDB("main", db); err != nil {
		t.Fatal(err)
	}
	addr := start(t, s)
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	q := testQuery(db, "seq-00", 0, 10)

	for _, k := range []int{0, -1} {
		_, _, local := db.SearchKNNWith(ctx, "fast", q, k, seqdb.SearchOptions{})
		_, _, remote := c.SearchKNNWith(ctx, "main", "fast", q, k, seqdb.SearchOptions{})
		for _, err := range []error{local, remote} {
			if err == nil || !strings.Contains(err.Error(), "k must be positive") {
				t.Errorf("k=%d: err = %v, want k must be positive", k, err)
			}
		}
	}
	if m := s.Metrics(); m.Requests != 0 {
		t.Fatalf("a non-positive k reached the server: %d requests", m.Requests)
	}

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := wire.WriteHello(conn); err != nil {
		t.Fatal(err)
	}
	if _, err := wire.ReadHello(conn); err != nil {
		t.Fatal(err)
	}
	req := wire.KNNReq{DB: "main", Index: "fast", K: -1, Query: q}
	if err := wire.WriteFrame(conn, wire.TKNN, req.Encode(nil)); err != nil {
		t.Fatal(err)
	}
	typ, body, err := wire.ReadFrame(conn)
	if err != nil || typ != wire.TError {
		t.Fatalf("reply frame = (%#x, %v), want TError", typ, err)
	}
	we, err := wire.DecodeError(body)
	if err != nil || we.Code != wire.CodeBadRequest {
		t.Fatalf("k=0xFFFFFFFF error = %v (%v), want bad-request", we, err)
	}
}

// TestServerRefusesFreedFrameTypes: up to protocol version 6, frame types
// 0x06 and 0x07 carried the batch and topology requests. After a version-7
// hello each is an unknown frame type, answered with a bad-request error
// frame, and the same connection then streams a search's answers
// bit-identically to the in-process visitor.
func TestServerRefusesFreedFrameTypes(t *testing.T) {
	leakCheck(t)
	db := newTestDB(t)
	s := New(Config{})
	if err := s.AddDB("main", db); err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", start(t, s))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := wire.WriteHello(conn); err != nil {
		t.Fatal(err)
	}
	if _, err := wire.ReadHello(conn); err != nil {
		t.Fatal(err)
	}
	for _, typ := range []byte{0x06, 0x07} {
		if err := wire.WriteFrame(conn, typ, (&wire.StatsReq{DB: "main"}).Encode(nil)); err != nil {
			t.Fatal(err)
		}
		rt, body, err := wire.ReadFrame(conn)
		if err != nil || rt != wire.TError {
			t.Fatalf("frame %#x: reply = (%#x, %v), want TError", typ, rt, err)
		}
		we, err := wire.DecodeError(body)
		if err != nil || we.Code != wire.CodeBadRequest || !strings.Contains(we.Msg, "unknown frame type") {
			t.Fatalf("frame %#x: error = %v (%v), want bad-request unknown frame type", typ, we, err)
		}
	}

	q := testQuery(db, "seq-03", 10, 30)
	var want, got []seqdb.Match
	if _, err := db.SearchVisitWith(context.Background(), "fast", q, 4, func(m seqdb.Match) bool {
		want = append(want, m)
		return true
	}, seqdb.SearchOptions{}); err != nil || len(want) == 0 {
		t.Fatalf("in-process search: %d matches, %v", len(want), err)
	}
	req := wire.SearchReq{DB: "main", Index: "fast", Eps: 4, Query: q}
	if err := wire.WriteFrame(conn, wire.TSearch, req.Encode(nil)); err != nil {
		t.Fatal(err)
	}
	for {
		rt, body, err := wire.ReadFrame(conn)
		if err != nil {
			t.Fatal(err)
		}
		if rt == wire.TDone {
			break
		}
		batch, err := wire.DecodeMatchBatch(body)
		if rt != wire.TMatch || err != nil {
			t.Fatalf("frame %#x in the match stream (%v)", rt, err)
		}
		for _, wm := range batch.Matches {
			got = append(got, seqdb.Match{SeqID: wm.SeqID, Seq: wm.Seq, Start: wm.Start, End: wm.End, Distance: wm.Distance})
		}
	}
	if !matchesBitIdentical(want, got) {
		t.Errorf("search after the refused frames: %d matches, want %d bit-identical", len(got), len(want))
	}
}

func TestServerDeadline(t *testing.T) {
	leakCheck(t)
	db := newTestDB(t)
	s := New(Config{SearchTimeout: time.Nanosecond})
	if err := s.AddDB("main", db); err != nil {
		t.Fatal(err)
	}
	addr := start(t, s)
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	q := testQuery(db, "seq-01", 0, 20)
	_, _, err = c.SearchWith(context.Background(), "main", "fast", q, 2, seqdb.SearchOptions{})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline", err)
	}
	var we *wire.Error
	if !errors.As(err, &we) || we.Code != wire.CodeDeadline {
		t.Fatalf("err = %v, want typed wire deadline error", err)
	}
	// The server counts a request once its response is flushed, which the
	// client may see first.
	for counted := time.Now().Add(5 * time.Second); s.Metrics().Deadlines != 1 && time.Now().Before(counted); {
		time.Sleep(time.Millisecond)
	}
	if m := s.Metrics(); m.Deadlines != 1 {
		t.Fatalf("deadline not counted: %+v", m)
	}

	// A client-side deadline that has already passed fails before sending.
	expired, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	time.Sleep(time.Millisecond)
	if _, _, err := c.SearchWith(expired, "main", "fast", q, 2, seqdb.SearchOptions{}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("client-side deadline err = %v", err)
	}
}

func TestServerOverloadFastFail(t *testing.T) {
	leakCheck(t)
	db := newTestDB(t)
	s := New(Config{MaxInFlight: 1})
	if err := s.AddDB("main", db); err != nil {
		t.Fatal(err)
	}
	admitted := make(chan struct{}, 1)
	release := make(chan struct{})
	s.testHookAdmitted = func() {
		admitted <- struct{}{}
		<-release
	}
	addr := start(t, s)
	q := testQuery(db, "seq-02", 5, 25)

	c1, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	firstDone := make(chan error, 1)
	go func() {
		_, _, err := c1.SearchWith(context.Background(), "main", "fast", q, 3, seqdb.SearchOptions{})
		firstDone <- err
	}()
	<-admitted // the only slot is now held

	c2, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	_, _, err = c2.SearchWith(context.Background(), "main", "fast", q, 3, seqdb.SearchOptions{})
	if !errors.Is(err, wire.ErrOverloaded) {
		t.Fatalf("second search err = %v, want ErrOverloaded", err)
	}

	close(release)
	if err := <-firstDone; err != nil {
		t.Fatalf("admitted search failed: %v", err)
	}
	// As in TestServerDeadline: counted once the response is flushed, which
	// the client may see first.
	for counted := time.Now().Add(5 * time.Second); s.Metrics().Overloaded != 1 && time.Now().Before(counted); {
		time.Sleep(time.Millisecond)
	}
	if m := s.Metrics(); m.Overloaded != 1 {
		t.Fatalf("overload not counted: %+v", m)
	}
}

// TestServerConcurrentClients is the acceptance bar: 32 concurrent
// connections streaming matches under -race, every one byte-identical to
// the in-process answer.
func TestServerConcurrentClients(t *testing.T) {
	leakCheck(t)
	db := newTestDB(t)
	s := New(Config{MaxInFlight: 64})
	if err := s.AddDB("main", db); err != nil {
		t.Fatal(err)
	}
	addr := start(t, s)

	type job struct {
		q   []float64
		eps float64
	}
	jobs := make([]job, 8)
	wants := make([][]seqdb.Match, len(jobs))
	for i := range jobs {
		seq := fmt.Sprintf("seq-%02d", (i*3)%20)
		jobs[i] = job{q: testQuery(db, seq, i, 20+i), eps: 3 + float64(i%3)}
		want, _, err := db.SearchWith(context.Background(), "fast", jobs[i].q, jobs[i].eps, seqdb.SearchOptions{})
		if err != nil {
			t.Fatal(err)
		}
		wants[i] = want
	}

	const clients = 32
	var wg sync.WaitGroup
	errs := make([]error, clients)
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c, err := client.Dial(addr)
			if err != nil {
				errs[w] = err
				return
			}
			defer c.Close()
			for round := 0; round < 3; round++ {
				j := (w + round) % len(jobs)
				got, _, err := c.SearchWith(context.Background(), "main", "fast", jobs[j].q, jobs[j].eps, seqdb.SearchOptions{})
				if err != nil {
					errs[w] = fmt.Errorf("client %d round %d: %w", w, round, err)
					return
				}
				if !matchesBitIdentical(wants[j], got) {
					errs[w] = fmt.Errorf("client %d round %d: answers differ", w, round)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	m := s.Metrics()
	if m.ConnsAccepted < clients {
		t.Fatalf("accepted %d conns, want >= %d", m.ConnsAccepted, clients)
	}
	if m.Overloaded != 0 {
		t.Fatalf("unexpected overloads under capacity: %+v", m)
	}
}

// TestServerShutdownDrainsInFlight pins the drain sequence: a search is
// in flight when Shutdown begins; the request is canceled, answered with a
// typed shutdown error, and Shutdown joins every goroutine.
func TestServerShutdownDrainsInFlight(t *testing.T) {
	leakCheck(t)
	db := newTestDB(t)
	s := New(Config{})
	if err := s.AddDB("main", db); err != nil {
		t.Fatal(err)
	}
	admitted := make(chan struct{}, 1)
	release := make(chan struct{})
	s.testHookAdmitted = func() {
		admitted <- struct{}{}
		<-release
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- s.Serve(ln) }()

	c, err := client.Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	q := testQuery(db, "seq-04", 0, 20)
	searchErr := make(chan error, 1)
	go func() {
		_, _, err := c.SearchWith(context.Background(), "main", "fast", q, 3, seqdb.SearchOptions{})
		searchErr <- err
	}()
	<-admitted // the search is admitted and in flight

	shutdownErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutdownErr <- s.Shutdown(ctx)
	}()
	// Give Shutdown a moment to cancel the drain context, then let the
	// in-flight request proceed into the (now canceled) search.
	time.Sleep(20 * time.Millisecond)
	close(release)

	if err := <-shutdownErr; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if err := <-serveErr; !errors.Is(err, ErrServerClosed) {
		t.Fatalf("Serve returned %v, want ErrServerClosed", err)
	}
	err = <-searchErr
	if !errors.Is(err, wire.ErrShutdown) && err == nil {
		t.Fatalf("in-flight search err = %v, want shutdown error", err)
	}

	// After shutdown, new Serve calls and connections are refused.
	ln2, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Serve(ln2); !errors.Is(err, ErrServerClosed) {
		t.Fatalf("Serve after shutdown = %v, want ErrServerClosed", err)
	}
}

// TestClientEarlyStopAndReconnect exercises the streaming visitor's early
// stop (which drops the connection by design) and the transparent redial
// on the next request. The visitor stops halfway through the second match
// frame: the rest of that batch and the stream after it are dropped with
// the connection, and none of it leaks into the next call.
func TestClientEarlyStopAndReconnect(t *testing.T) {
	leakCheck(t)
	db := newTestDB(t)
	s := New(Config{})
	if err := s.AddDB("main", db); err != nil {
		t.Fatal(err)
	}
	addr := start(t, s)
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	q := testQuery(db, "seq-03", 10, 30)
	const eps = 20.0
	want, _, err := db.SearchWith(context.Background(), "fast", q, eps, seqdb.SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Every record of this DB has the same size ("seq-NN"), so a batch is
	// sent once it holds perBatch of them.
	rec := len((&wire.Match{SeqID: want[0].SeqID}).Encode(nil))
	perBatch := (32<<10 + rec - 1) / rec
	stop := perBatch + perBatch/2
	if len(want) < 2*perBatch {
		t.Fatalf("need two batches (%d matches) for a stop inside the second, have %d", 2*perBatch, len(want))
	}
	seen := 0
	if _, err := c.SearchVisitWith(context.Background(), "main", "fast", q, eps, func(seqdb.Match) bool {
		seen++
		return seen < stop
	}, seqdb.SearchOptions{}); err != nil {
		t.Fatalf("early-stopped visit: %v", err)
	}
	if seen != stop {
		t.Fatalf("visitor saw %d matches, want %d", seen, stop)
	}
	// The stop dropped the connection; the next call redials and works.
	got, _, err := c.SearchWith(context.Background(), "main", "fast", q, eps, seqdb.SearchOptions{})
	if err != nil {
		t.Fatalf("search after early stop: %v", err)
	}
	if !matchesBitIdentical(want, got) {
		t.Fatal("post-reconnect answers differ")
	}
}

// TestServerIgnoresParallelism: the options' Parallelism and the server's
// MaxQueryParallelism are ignored, so a search and a k-NN asking for eight
// workers through a server configured for eight return the answers and the
// work counters of the in-process search with the zero options.
func TestServerIgnoresParallelism(t *testing.T) {
	leakCheck(t)
	db := newTestDB(t)
	s := New(Config{MaxQueryParallelism: 8})
	if err := s.AddDB("main", db); err != nil {
		t.Fatal(err)
	}
	c, err := client.Dial(start(t, s))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ctx := context.Background()
	q := testQuery(db, "seq-03", 10, 30)
	const eps = 4.0
	par := seqdb.SearchOptions{Parallelism: 8}

	want, wantStats, err := db.SearchWith(ctx, "fast", q, eps, seqdb.SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("test query found no matches; pick a better query")
	}
	wantKNN, wantKNNStats, err := db.SearchKNNWith(ctx, "fast", q, 5, seqdb.SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got, gotStats, err := c.SearchWith(ctx, "main", "fast", q, eps, par)
	if err != nil {
		t.Fatal(err)
	}
	if !matchesBitIdentical(want, got) || workCounters(gotStats) != workCounters(wantStats) {
		t.Fatalf("search: %d answers, counters %v; want %d, %v", len(got), workCounters(gotStats), len(want), workCounters(wantStats))
	}
	gotKNN, gotKNNStats, err := c.SearchKNNWith(ctx, "main", "fast", q, 5, par)
	if err != nil {
		t.Fatal(err)
	}
	if !matchesBitIdentical(wantKNN, gotKNN) || workCounters(gotKNNStats) != workCounters(wantKNNStats) {
		t.Fatalf("k-NN: counters %v, want %v", workCounters(gotKNNStats), workCounters(wantKNNStats))
	}
}

// workCounters is the part of SearchStats a search pins exactly: every
// counter but the index-wide pool deltas and the wall clock.
func workCounters(s seqdb.SearchStats) [8]uint64 {
	return [8]uint64{s.NodesVisited, s.FilterCells, s.PostCells, s.Candidates, s.FalseAlarms, s.Answers, s.EnvelopePruned, s.LBCells}
}

// TestServerKNNAboveReachable: a remote k-NN whose k exceeds the number of
// subsequences there are returns every one of them — what the scan finds
// at an infinite threshold — after the rounds reach the index's distance
// bound, not after a threshold no distance comes near.
func TestServerKNNAboveReachable(t *testing.T) {
	leakCheck(t)
	db := newTestDB(t)
	s := New(Config{})
	if err := s.AddDB("main", db); err != nil {
		t.Fatal(err)
	}
	c, err := client.Dial(start(t, s))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ctx := context.Background()
	q := testQuery(db, "seq-03", 10, 14)
	all, _, err := db.SeqScanCtx(ctx, q, math.Inf(1))
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := c.SearchKNNWith(ctx, "main", "fast", q, len(all)+1, seqdb.SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !matchesBitIdentical(all, got) {
		t.Fatalf("k-NN with k = %d: %d answers, want the %d subsequences there are", len(all)+1, len(got), len(all))
	}
}
