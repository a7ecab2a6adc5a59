//go:build linux

package client

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"syscall"
	"testing"
	"time"

	"twsearch/internal/wire"
	"twsearch/seqdb"
)

// TestRequestDeadlineBoundsDial: a request on a client with no connection
// redials under the request's context, so its deadline, not dialTimeout,
// bounds a connect that hangs. The connect hangs against a loopback
// listener of backlog 0 whose one queue slot is taken: Linux drops every
// further SYN while the accept queue is full.
func TestRequestDeadlineBoundsDial(t *testing.T) {
	fd, err := syscall.Socket(syscall.AF_INET, syscall.SOCK_STREAM, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer syscall.Close(fd)
	if err := syscall.Bind(fd, &syscall.SockaddrInet4{Addr: [4]byte{127, 0, 0, 1}}); err != nil {
		t.Fatal(err)
	}
	if err := syscall.Listen(fd, 0); err != nil {
		t.Fatal(err)
	}
	sa, err := syscall.Getsockname(fd)
	if err != nil {
		t.Fatal(err)
	}
	addr := fmt.Sprintf("127.0.0.1:%d", sa.(*syscall.SockaddrInet4).Port)
	first, err := net.DialTimeout("tcp", addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer first.Close()

	c := &Client{addr: addr}
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = c.Stats(ctx, "main")
	if elapsed := time.Since(start); err == nil || elapsed > dialTimeout/2 {
		t.Fatalf("request with a 200ms deadline returned after %v with err = %v, want a dial error at its deadline", elapsed, err)
	}
}

// leakCheck fails the test if, once its cleanups have run, more goroutines
// remain than when it was called. Registered first so it runs last.
func leakCheck(t *testing.T) {
	t.Helper()
	before := runtime.NumGoroutine()
	t.Cleanup(func() {
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > before {
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<16)
				t.Fatalf("goroutine leak: %d before, %d after\n%s",
					before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
			}
			time.Sleep(10 * time.Millisecond)
		}
	})
}

// stallingServer listens on loopback and serves one connection: it answers
// the handshake when handshake is set, reads one request frame and reports
// it on the returned channel, then holds the connection open, answering
// nothing, until hangUp or the end of the test.
func stallingServer(t *testing.T, handshake bool) (addr string, requested <-chan struct{}, hangUp func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	got := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	hangUp = func() { once.Do(func() { close(release) }) }
	served := make(chan struct{})
	go func() {
		defer close(served)
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		if handshake {
			br := bufio.NewReader(conn)
			if _, err := wire.ReadHello(br); err != nil {
				return
			}
			if err := wire.WriteHello(conn); err != nil {
				return
			}
			if _, _, err := wire.ReadFrame(br); err != nil {
				return
			}
			close(got)
		}
		<-release
	}()
	t.Cleanup(func() {
		hangUp()
		ln.Close()
		<-served
	})
	return ln.Addr().String(), got, hangUp
}

// TestRequestCancelAbortsStream: a request whose context is cancelled, with
// no deadline, aborts while the server stalls its answer, and its error
// names the cancel.
func TestRequestCancelAbortsStream(t *testing.T) {
	leakCheck(t)
	addr, requested, hangUp := stallingServer(t, true)
	c := &Client{addr: addr}
	defer c.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		_, _, err := c.SearchWith(ctx, "main", "fast", []float64{1, 2, 3}, 1, seqdb.SearchOptions{})
		done <- err
	}()
	<-requested
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want one wrapping context.Canceled", err)
		}
	case <-time.After(dialTimeout / 2):
		hangUp()
		<-done
		t.Fatalf("request still blocked %v after its cancel", dialTimeout/2)
	}
}

// TestRequestDeadlineBoundsHandshake: a request on a client with no
// connection runs the redial's handshake under the request's deadline, not
// dialTimeout, when the server accepts and never answers the hello.
func TestRequestDeadlineBoundsHandshake(t *testing.T) {
	leakCheck(t)
	addr, _, _ := stallingServer(t, false)
	c := &Client{addr: addr}
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := c.Stats(ctx, "main")
	if elapsed := time.Since(start); err == nil || elapsed > dialTimeout/2 {
		t.Fatalf("request with a 200ms deadline returned after %v with err = %v, want a handshake error at its deadline", elapsed, err)
	}
}
