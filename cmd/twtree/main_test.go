package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"twsearch/seqdb"
)

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

func TestTwtreeValidateAndDump(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db")
	db, err := seqdb.Create(dir)
	if err != nil {
		t.Fatal(err)
	}
	db.Add("a", []float64{1, 2, 3, 2, 1, 2, 3})
	db.Add("b", []float64{3, 2, 1, 1, 1})
	db.Save()
	if err := db.BuildIndex("x", seqdb.IndexSpec{Method: seqdb.MethodMaxEntropy, Categories: 3, Sparse: true}); err != nil {
		t.Fatal(err)
	}
	db.Close()

	out, err := captureStdout(t, func() error { return run(dir, "x", 0, 16) })
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(out, "validation: OK") {
		t.Fatalf("output: %q", out)
	}
	if !strings.Contains(out, "sparse:     true") {
		t.Fatalf("sparse flag missing: %q", out)
	}
	if !strings.Contains(out, "encoding:   v1") { // a scalar index's default
		t.Fatalf("encoding missing or not v1: %q", out)
	}

	out, err = captureStdout(t, func() error { return run(dir, "x", 2, 16) })
	if err != nil {
		t.Fatalf("run with dump: %v", err)
	}
	if !strings.Contains(out, "root") || !strings.Contains(out, "leaf") {
		t.Fatalf("dump output: %q", out)
	}

	if err := run(dir, "missing", 0, 16); err == nil {
		t.Error("missing index accepted")
	}
	if err := run(t.TempDir(), "x", 0, 16); err == nil {
		t.Error("missing database accepted")
	}
}

// The index of a database of dimension 2 is validated against its grid,
// and is built by default in the compact encoding.
func TestTwtreeVectorIndex(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "vdb")
	db, err := seqdb.CreateDim(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i, walk := range [][]float64{
		{0, 0, 1, 0, 1, 1, 2, 1, 2, 2, 3, 2},
		{5, 5, 4, 5, 4, 4, 3, 4, 3, 3},
	} {
		if err := db.Add(fmt.Sprintf("w%d", i), walk); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Save(); err != nil {
		t.Fatal(err)
	}
	if err := db.BuildIndex("g", seqdb.IndexSpec{Categories: 3}); err != nil {
		t.Fatal(err)
	}
	db.Close()

	out, err := captureStdout(t, func() error { return run(dir, "g", 2, 16) })
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, want := range []string{"encoding:   v2", "validation: OK", "2-D grid", "root"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output lacks %q: %q", want, out)
		}
	}
	if err := run(dir, "missing", 0, 16); err == nil {
		t.Error("missing vector index accepted")
	}
}
