package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"twsearch/seqdb"
	"twsearch/seqdb/client"
)

// buildTestDB creates an on-disk database with a sparse max-entropy index
// and returns its dir plus the answers for a reference query.
func buildTestDB(t *testing.T) (dir string, query []float64, want []seqdb.Match) {
	t.Helper()
	dir = filepath.Join(t.TempDir(), "stocks")
	db, err := seqdb.Create(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		vals := make([]float64, 64)
		for j := range vals {
			vals[j] = 4*math.Sin(float64(j)/5+float64(i)) + float64(i%4)
		}
		if err := db.Add(fmt.Sprintf("stock-%02d", i), vals); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Save(); err != nil {
		t.Fatal(err)
	}
	if err := db.BuildIndex("fast", seqdb.IndexSpec{
		Method: seqdb.MethodMaxEntropy, Categories: 8, Sparse: true,
	}); err != nil {
		t.Fatal(err)
	}
	query = append([]float64(nil), db.Values("stock-05")[8:28]...)
	want, _, err = db.SearchWith(context.Background(), "fast", query, 3, seqdb.SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("reference query found nothing")
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	return dir, query, want
}

// TestDaemonSmoke is the end-to-end drill from the issue: boot the daemon
// on an ephemeral port, hit it with concurrent clients, then deliver a
// real SIGTERM and require a clean drain.
func TestDaemonSmoke(t *testing.T) {
	dir, query, want := buildTestDB(t)

	var out bytes.Buffer
	ready := make(chan string, 1)
	done := make(chan error, 1)
	go func() {
		done <- run([]string{"-addr", "127.0.0.1:0", "-db", "main=" + dir, "-q"}, &out, ready)
	}()
	var addr string
	select {
	case addr = <-ready:
	case err := <-done:
		t.Fatalf("daemon exited before listening: %v\n%s", err, out.String())
	case <-time.After(10 * time.Second):
		t.Fatal("daemon never became ready")
	}

	const clients = 8
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
			got, _, err := c.SearchWith(context.Background(), "main", "fast", query, 3, seqdb.SearchOptions{})
			if err != nil {
				errs[w] = err
				return
			}
			if len(got) != len(want) {
				errs[w] = fmt.Errorf("client %d: %d matches, want %d", w, len(got), len(want))
				return
			}
			for i := range got {
				if got[i] != want[i] ||
					math.Float64bits(got[i].Distance) != math.Float64bits(want[i].Distance) {
					errs[w] = fmt.Errorf("client %d: match %d differs: %+v != %+v", w, i, got[i], want[i])
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

	// A real SIGTERM, delivered to ourselves, must drain the daemon.
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("daemon exit: %v\n%s", err, out.String())
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("daemon did not drain after SIGTERM\n%s", out.String())
	}
	if !strings.Contains(out.String(), "drained cleanly") {
		t.Fatalf("no drain confirmation in log:\n%s", out.String())
	}
}

func TestDaemonRejectsNoDB(t *testing.T) {
	var out bytes.Buffer
	if err := run(nil, &out, nil); err == nil || !strings.Contains(err.Error(), "no databases") {
		t.Fatalf("err = %v, want no-databases error", err)
	}
}

func TestDBFlagParsing(t *testing.T) {
	var f dbFlag
	if err := f.Set("/data/stocks"); err != nil {
		t.Fatal(err)
	}
	if err := f.Set("prod=/data/other"); err != nil {
		t.Fatal(err)
	}
	if err := f.Set(""); err == nil {
		t.Fatal("empty dir accepted")
	}
	if f.names[0] != "stocks" || f.names[1] != "prod" || f.dirs[1] != "/data/other" {
		t.Fatalf("parsed %+v", f)
	}
}
