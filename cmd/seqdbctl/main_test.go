package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"twsearch/internal/wire"
	"twsearch/seqdb"
	"twsearch/seqdb/server"
)

// captureStdout runs fn with os.Stdout redirected and returns what it
// printed.
func captureStdout(t *testing.T, fn func() error) (string, error) {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	runErr := fn()
	w.Close()
	os.Stdout = old
	var sb strings.Builder
	buf := make([]byte, 4096)
	for {
		n, err := r.Read(buf)
		sb.Write(buf[:n])
		if err != nil {
			break
		}
	}
	return sb.String(), runErr
}

func TestCLILifecycle(t *testing.T) {
	db := filepath.Join(t.TempDir(), "db")

	out, err := captureStdout(t, func() error {
		return cmdGen([]string{"-db", db, "-kind", "stocks", "-n", "15", "-seed", "7"})
	})
	if err != nil {
		t.Fatalf("gen: %v", err)
	}
	if !strings.Contains(out, "generated 15 stocks sequences") {
		t.Fatalf("gen output: %q", out)
	}

	if _, err := captureStdout(t, func() error {
		return cmdIndex([]string{"-db", db, "-name", "fast", "-method", "me", "-cats", "10", "-sparse"})
	}); err != nil {
		t.Fatalf("index: %v", err)
	}

	out, err = captureStdout(t, func() error {
		return cmdStats([]string{"-db", db})
	})
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	if !strings.Contains(out, "sequences:      15") || !strings.Contains(out, `index "fast"`) {
		t.Fatalf("stats output: %q", out)
	}

	out, err = captureStdout(t, func() error {
		return cmdQuery([]string{"-db", db, "-name", "fast", "-eps", "8",
			"-from", "stock-0002", "-start", "10", "-len", "12", "-limit", "3"}, true)
	})
	if err != nil {
		t.Fatalf("query: %v", err)
	}
	if !strings.Contains(out, "matches in") || !strings.Contains(out, "stock-0002") {
		t.Fatalf("query output: %q", out)
	}

	scanOut, err := captureStdout(t, func() error {
		return cmdQuery([]string{"-db", db, "-eps", "8",
			"-from", "stock-0002", "-start", "10", "-len", "12", "-limit", "3"}, false)
	})
	if err != nil {
		t.Fatalf("scan: %v", err)
	}
	// Index and scan agree on the match count (first output token).
	if strings.Fields(out)[0] != strings.Fields(scanOut)[0] {
		t.Fatalf("query found %s matches, scan %s", strings.Fields(out)[0], strings.Fields(scanOut)[0])
	}

	out, err = captureStdout(t, func() error {
		return cmdKNN([]string{"-db", db, "-name", "fast", "-k", "4",
			"-from", "stock-0002", "-start", "10", "-len", "12"})
	})
	if err != nil {
		t.Fatalf("knn: %v", err)
	}
	if !strings.Contains(out, "4 nearest subsequences") {
		t.Fatalf("knn output: %q", out)
	}

	out, err = captureStdout(t, func() error {
		return cmdAlign([]string{"-db", db, "-seq", "stock-0002", "-start", "10", "-end", "20",
			"-from", "stock-0002", "-qstart", "10", "-qlen", "10"})
	})
	if err != nil {
		t.Fatalf("align: %v", err)
	}
	if !strings.Contains(out, "= 0.0000") {
		t.Fatalf("self-alignment distance not zero: %q", out)
	}

	out, err = captureStdout(t, func() error {
		return cmdTune([]string{"-db", db, "-counts", "4,16", "-queries", "2", "-eps", "5"})
	})
	if err != nil {
		t.Fatalf("tune: %v", err)
	}
	if !strings.Contains(out, "best count") {
		t.Fatalf("tune output: %q", out)
	}

	if _, err := captureStdout(t, func() error {
		return cmdDrop([]string{"-db", db, "-name", "fast"})
	}); err != nil {
		t.Fatalf("drop: %v", err)
	}
}

func TestCLIImport(t *testing.T) {
	dir := t.TempDir()
	csvPath := filepath.Join(dir, "in.csv")
	if err := os.WriteFile(csvPath, []byte("a,1,2,3\nb,4,5\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	db := filepath.Join(dir, "db")
	out, err := captureStdout(t, func() error {
		return cmdImport([]string{"-db", db, "-csv", csvPath})
	})
	if err != nil {
		t.Fatalf("import: %v", err)
	}
	if !strings.Contains(out, "imported 2 sequences") {
		t.Fatalf("import output: %q", out)
	}
}

func TestCLIErrors(t *testing.T) {
	if err := cmdCreate([]string{}); err == nil {
		t.Error("create without -db accepted")
	}
	if err := cmdGen([]string{"-db", filepath.Join(t.TempDir(), "x"), "-kind", "bogus"}); err == nil {
		t.Error("bogus kind accepted")
	}
	if err := cmdIndex([]string{"-db", "nowhere", "-name", "x", "-method", "bogus"}); err == nil {
		t.Error("bogus method accepted")
	}
	if err := cmdQuery([]string{"-db", "nowhere", "-eps", "1"}, false); err == nil {
		t.Error("missing database accepted")
	}
	if err := cmdTune([]string{"-db", "nowhere", "-counts", "zero"}); err == nil {
		t.Error("bad counts accepted")
	}
	if err := cmdTune([]string{"-db", "nowhere", "-method", "exact"}); err == nil || !strings.Contains(err.Error(), "exact") {
		t.Errorf("tune -method exact: %v, want a refusal naming it", err)
	}
}

func TestExitCodes(t *testing.T) {
	if got := exitCode(errors.New("boom")); got != 1 {
		t.Errorf("generic error -> %d, want 1", got)
	}
	if got := exitCode(fmt.Errorf("search: %w", context.DeadlineExceeded)); got != 3 {
		t.Errorf("deadline -> %d, want 3", got)
	}
	if got := exitCode(&wire.Error{Code: wire.CodeDeadline, Msg: "deadline exceeded"}); got != 3 {
		t.Errorf("wire deadline -> %d, want 3", got)
	}
	if got := exitCode(fmt.Errorf("search: %w", wire.ErrOverloaded)); got != 4 {
		t.Errorf("overloaded -> %d, want 4", got)
	}
	if got := exitCode(&wire.Error{Code: wire.CodeOverloaded, Msg: "server overloaded"}); got != 4 {
		t.Errorf("wire overloaded -> %d, want 4", got)
	}
}

// TestCLITimeout drives -timeout through the context plumbing: a deadline
// that has already expired must surface as context.DeadlineExceeded (exit
// code 3), not as a partial answer.
func TestCLITimeout(t *testing.T) {
	db := filepath.Join(t.TempDir(), "db")
	if _, err := captureStdout(t, func() error {
		return cmdGen([]string{"-db", db, "-kind", "stocks", "-n", "10", "-seed", "3"})
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := captureStdout(t, func() error {
		return cmdIndex([]string{"-db", db, "-name", "fast", "-method", "me", "-cats", "8", "-sparse"})
	}); err != nil {
		t.Fatal(err)
	}
	_, err := captureStdout(t, func() error {
		return cmdQuery([]string{"-db", db, "-name", "fast", "-eps", "5",
			"-from", "stock-0001", "-start", "0", "-len", "10", "-timeout", "1ns"}, true)
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline", err)
	}
	if exitCode(err) != 3 {
		t.Fatalf("exit code %d, want 3", exitCode(err))
	}
	// Scan and knn honor the flag the same way.
	_, err = captureStdout(t, func() error {
		return cmdQuery([]string{"-db", db, "-eps", "5",
			"-from", "stock-0001", "-len", "10", "-timeout", "1ns"}, false)
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("scan err = %v, want deadline", err)
	}
	_, err = captureStdout(t, func() error {
		return cmdKNN([]string{"-db", db, "-name", "fast", "-k", "3",
			"-from", "stock-0001", "-len", "10", "-timeout", "1ns"})
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("knn err = %v, want deadline", err)
	}
}

// TestCLIRemote points query/scan/knn at a live twsearchd-style server
// and checks the remote answers match the local ones.
func TestCLIRemote(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db")
	if _, err := captureStdout(t, func() error {
		return cmdGen([]string{"-db", dir, "-kind", "stocks", "-n", "10", "-seed", "5"})
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := captureStdout(t, func() error {
		return cmdIndex([]string{"-db", dir, "-name", "fast", "-method", "me", "-cats", "8", "-sparse"})
	}); err != nil {
		t.Fatal(err)
	}
	d, err := seqdb.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	qvals := d.Values("stock-0003")[5:17]
	var qparts []string
	for _, v := range qvals {
		qparts = append(qparts, strconv.FormatFloat(v, 'g', -1, 64))
	}
	qarg := strings.Join(qparts, ",")

	s := server.New(server.Config{})
	if err := s.AddDB("main", d); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- s.Serve(ln) }()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Error(err)
		}
		<-serveErr
	}()
	addr := ln.Addr().String()

	local, err := captureStdout(t, func() error {
		return cmdQuery([]string{"-db", dir, "-name", "fast", "-eps", "6", "-q", qarg}, true)
	})
	if err != nil {
		t.Fatal(err)
	}
	remote, err := captureStdout(t, func() error {
		return cmdQuery([]string{"-addr", addr, "-dbname", "main", "-name", "fast", "-eps", "6", "-q", qarg}, true)
	})
	if err != nil {
		t.Fatalf("remote query: %v", err)
	}
	// Identical matches modulo the timing line: compare from the first
	// match row on, and the match counts up front.
	if strings.Fields(local)[0] != strings.Fields(remote)[0] {
		t.Fatalf("local found %s matches, remote %s", strings.Fields(local)[0], strings.Fields(remote)[0])
	}
	trim := func(s string) string {
		_, rest, _ := strings.Cut(s, "\n")
		return rest
	}
	if trim(local) != trim(remote) {
		t.Fatalf("remote matches differ:\nlocal:\n%s\nremote:\n%s", local, remote)
	}

	remoteScan, err := captureStdout(t, func() error {
		return cmdQuery([]string{"-addr", addr, "-eps", "6", "-q", qarg}, false)
	})
	if err != nil {
		t.Fatalf("remote scan: %v", err)
	}
	if trim(local) != trim(remoteScan) {
		t.Fatalf("remote scan differs from local query:\n%s\nvs\n%s", local, remoteScan)
	}
	if out, err := captureStdout(t, func() error {
		return cmdKNN([]string{"-addr", addr, "-name", "fast", "-k", "3", "-q", qarg})
	}); err != nil || !strings.Contains(out, "3 nearest subsequences") {
		t.Fatalf("remote knn: %v\n%s", err, out)
	}

	// Remote mode without -q is a usage error, not a hang.
	if err := cmdQuery([]string{"-addr", addr, "-name", "fast", "-eps", "1", "-from", "stock-0001"}, true); err == nil {
		t.Fatal("remote -from accepted")
	}
}

// TestVectorCLILifecycle drives a database of dimension 2 through every
// verb that serves it: create and gen with -dim, index, stats, query and
// scan (which agree), knn and drop; the verbs for values only refuse it.
func TestVectorCLILifecycle(t *testing.T) {
	db := filepath.Join(t.TempDir(), "vdb")
	out, err := captureStdout(t, func() error {
		return cmdGen([]string{"-db", db, "-dim", "2", "-n", "10", "-len", "40", "-seed", "5"})
	})
	if err != nil {
		t.Fatalf("gen: %v", err)
	}
	if !strings.Contains(out, "generated 10 trajectories of 40 2-D points") {
		t.Fatalf("gen output: %q", out)
	}

	if _, err := captureStdout(t, func() error {
		return cmdIndex([]string{"-db", db, "-name", "g", "-cats", "5", "-sparse"})
	}); err != nil {
		t.Fatalf("index: %v", err)
	}

	out, err = captureStdout(t, func() error { return cmdStats([]string{"-db", db}) })
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	for _, want := range []string{"dimension:      2", "sequences:      10", `index "g": method=max-entropy cats=5 sparse=true window=-1 encoding=v2`} {
		if !strings.Contains(out, want) {
			t.Fatalf("stats output lacks %q: %q", want, out)
		}
	}

	cutFlags := []string{"-db", db, "-eps", "4", "-from", "traj-0003", "-start", "5", "-len", "6", "-limit", "2"}
	qOut, err := captureStdout(t, func() error { return cmdQuery(append([]string{"-name", "g"}, cutFlags...), true) })
	if err != nil {
		t.Fatalf("query: %v", err)
	}
	sOut, err := captureStdout(t, func() error { return cmdQuery(cutFlags, false) })
	if err != nil {
		t.Fatalf("scan: %v", err)
	}
	if n := strings.Fields(qOut)[0]; n == "0" || n != strings.Fields(sOut)[0] {
		t.Fatalf("index %s matches vs scan %s", n, strings.Fields(sOut)[0])
	}
	// The same query as literal point-major values finds the same answers.
	vals, err := seqdb.Open(db)
	if err != nil {
		t.Fatal(err)
	}
	var lit []string
	for _, v := range vals.Values("traj-0003")[2*5 : 2*11] {
		lit = append(lit, strconv.FormatFloat(v, 'g', -1, 64))
	}
	vals.Close()
	litOut, err := captureStdout(t, func() error {
		return cmdQuery([]string{"-db", db, "-name", "g", "-eps", "4", "-q", strings.Join(lit, ","), "-limit", "2"}, true)
	})
	if err != nil || strings.Fields(litOut)[0] != strings.Fields(qOut)[0] {
		t.Fatalf("literal query: %q (%v), want the -from query's count %s", litOut, err, strings.Fields(qOut)[0])
	}
	if err := cmdQuery([]string{"-db", db, "-name", "g", "-eps", "4", "-q", "1,2,3"}, true); !errors.Is(err, seqdb.ErrDimension) {
		t.Errorf("a point and a half: err = %v, want ErrDimension", err)
	}

	kOut, err := captureStdout(t, func() error {
		return cmdKNN([]string{"-db", db, "-name", "g", "-k", "3", "-from", "traj-0003", "-start", "5", "-len", "6"})
	})
	if err != nil {
		t.Fatalf("knn: %v", err)
	}
	if !strings.HasPrefix(kOut, "3 nearest subsequences") {
		t.Fatalf("knn output: %q", kOut)
	}

	for verb, err := range map[string]error{
		"align": cmdAlign([]string{"-db", db, "-seq", "traj-0001", "-start", "0", "-end", "5", "-from", "traj-0003", "-qlen", "5"}),
		"tune":  cmdTune([]string{"-db", db, "-counts", "2,4", "-queries", "1"}),
	} {
		if !errors.Is(err, seqdb.ErrDimension) {
			t.Errorf("%s on a 2-dimensional database: err = %v, want ErrDimension", verb, err)
		}
	}

	if _, err := captureStdout(t, func() error {
		return cmdDrop([]string{"-db", db, "-name", "g"})
	}); err != nil {
		t.Fatalf("drop: %v", err)
	}
}

// TestCLIShardIndexFlags: `shard -name` reads the flags `index` reads, with
// the same defaults — at d = 2 a grid of 8 categories per dimension, not
// the 20 of a scalar index — and takes -encoding.
func TestCLIShardIndexFlags(t *testing.T) {
	dir := t.TempDir()
	db := filepath.Join(dir, "vdb")
	if _, err := captureStdout(t, func() error {
		return cmdGen([]string{"-db", db, "-dim", "2", "-n", "10", "-len", "40", "-seed", "5"})
	}); err != nil {
		t.Fatalf("gen: %v", err)
	}
	if _, err := captureStdout(t, func() error { return cmdIndex([]string{"-db", db, "-name", "g"}) }); err != nil {
		t.Fatalf("index: %v", err)
	}
	for _, c := range []struct {
		flags []string
		want  string
	}{
		{nil, `index "g": method=max-entropy cats=8 sparse=false window=-1 encoding=v2`},
		{[]string{"-cats", "5", "-encoding", "v1"}, `index "g": method=max-entropy cats=5 sparse=false window=-1 encoding=v1`},
	} {
		out := filepath.Join(dir, fmt.Sprintf("sharded-%d", len(c.flags)))
		if _, err := captureStdout(t, func() error {
			return cmdShard(append([]string{"-db", db, "-out", out, "-shards", "2", "-name", "g"}, c.flags...))
		}); err != nil {
			t.Fatalf("shard %v: %v", c.flags, err)
		}
		dbs := []string{out}
		if c.flags == nil {
			dbs = append(dbs, db) // the unsharded index, built by `index` with no flags
		}
		for _, d := range dbs {
			stats, err := captureStdout(t, func() error { return cmdStats([]string{"-db", d}) })
			if err != nil || !strings.Contains(stats, c.want) {
				t.Errorf("stats of %s after shard %v: %v\n%s\nwant %q", d, c.flags, err, stats, c.want)
			}
		}
	}
}

func TestVectorCLIErrors(t *testing.T) {
	if err := cmdCreate([]string{"-dim", "2"}); err == nil {
		t.Error("create without -db accepted")
	}
	if err := cmdCreate([]string{"-db", filepath.Join(t.TempDir(), "z"), "-dim", "0"}); err == nil {
		t.Error("create -dim 0 accepted")
	}
	if err := cmdQuery([]string{"-db", "nowhere", "-name", "g", "-from", "x"}, true); err == nil {
		t.Error("missing database accepted")
	}
	if err := cmdIndex([]string{"-db", "nowhere"}); err == nil {
		t.Error("missing name accepted")
	}
}

// TestCLIKNNQueryValues: knn reads its query as query and scan do, from
// literal -q values as well as from a -from cut, and the two give the same
// neighbors.
func TestCLIKNNQueryValues(t *testing.T) {
	db := filepath.Join(t.TempDir(), "db")
	if _, err := captureStdout(t, func() error {
		return cmdGen([]string{"-db", db, "-kind", "stocks", "-n", "10", "-seed", "9"})
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := captureStdout(t, func() error {
		return cmdIndex([]string{"-db", db, "-name", "fast", "-cats", "8", "-sparse"})
	}); err != nil {
		t.Fatal(err)
	}
	d, err := seqdb.Open(db)
	if err != nil {
		t.Fatal(err)
	}
	var qparts []string
	for _, v := range d.Values("stock-0002")[10:22] {
		qparts = append(qparts, strconv.FormatFloat(v, 'g', -1, 64))
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	values, err := captureStdout(t, func() error {
		return cmdKNN([]string{"-db", db, "-name", "fast", "-k", "4", "-q", strings.Join(qparts, ",")})
	})
	if err != nil {
		t.Fatalf("knn -q: %v", err)
	}
	cut, err := captureStdout(t, func() error {
		return cmdKNN([]string{"-db", db, "-name", "fast", "-k", "4", "-from", "stock-0002", "-start", "10", "-len", "12"})
	})
	if err != nil {
		t.Fatal(err)
	}
	rows := func(s string) string {
		_, rest, _ := strings.Cut(s, "\n")
		return rest
	}
	if !strings.HasPrefix(values, "4 nearest subsequences") || rows(values) != rows(cut) {
		t.Fatalf("knn -q printed\n%s\nknn -from printed\n%s", values, cut)
	}
	if err := cmdKNN([]string{"-db", db, "-name", "fast"}); err == nil || !strings.Contains(err.Error(), "need -q or -from") {
		t.Fatalf("knn without a query: %v", err)
	}
}

// TestCLIInterruptedBuild: a database whose build of b was cut between the
// tree's rename and the record's (b's tree is there, its record is not)
// opens: stats lists a and c, and index -name b rebuilds b over the
// orphan tree.
func TestCLIInterruptedBuild(t *testing.T) {
	db := filepath.Join(t.TempDir(), "db")
	if _, err := captureStdout(t, func() error {
		return cmdGen([]string{"-db", db, "-kind", "stocks", "-n", "8", "-seed", "4"})
	}); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"a", "b", "c"} {
		if _, err := captureStdout(t, func() error {
			return cmdIndex([]string{"-db", db, "-name", name, "-cats", "6"})
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.Remove(filepath.Join(db, "idx-b.cat")); err != nil {
		t.Fatal(err)
	}
	out, err := captureStdout(t, func() error { return cmdStats([]string{"-db", db}) })
	if err != nil {
		t.Fatalf("stats over b's orphan tree: %v", err)
	}
	if !strings.Contains(out, `index "a"`) || !strings.Contains(out, `index "c"`) || strings.Contains(out, `index "b"`) {
		t.Fatalf("stats output: %q", out)
	}
	if _, err := captureStdout(t, func() error {
		return cmdIndex([]string{"-db", db, "-name", "b", "-cats", "6"})
	}); err != nil {
		t.Fatalf("rebuilding b: %v", err)
	}
	out, err = captureStdout(t, func() error { return cmdStats([]string{"-db", db}) })
	if err != nil || !strings.Contains(out, `index "b"`) {
		t.Fatalf("stats after the rebuild: %v\n%s", err, out)
	}
}
