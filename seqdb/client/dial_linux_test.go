//go:build linux

package client

import (
	"context"
	"fmt"
	"net"
	"syscall"
	"testing"
	"time"
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
