package storage

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// commitForms are the two forms of the commit path, each writing data.
var commitForms = map[string]func(path string, data []byte, fail error) error{
	"Commit": func(path string, data []byte, fail error) error {
		return Commit(path, func(w io.Writer) error {
			if _, err := w.Write(data); err != nil {
				return err
			}
			return fail
		})
	},
	"CommitPath": func(path string, data []byte, fail error) error {
		return CommitPath(path, func(tmp string) error {
			if err := os.WriteFile(tmp, data, 0o644); err != nil {
				return err
			}
			return fail
		})
	},
}

// checkDir fails t unless dir holds exactly the named entries: no scratch
// directory left beside them.
func checkDir(t *testing.T, dir string, names ...string) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, e := range entries {
		got = append(got, e.Name())
	}
	if !slices.Equal(got, names) {
		t.Fatalf("%s holds %v, want %v", dir, got, names)
	}
}

func TestCommitReplacesFile(t *testing.T) {
	for form, commit := range commitForms {
		dir := t.TempDir()
		path := filepath.Join(dir, "f")
		if err := os.WriteFile(path, []byte("old"), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := commit(path, []byte("new bytes"), nil); err != nil {
			t.Fatalf("%s: %v", form, err)
		}
		if got, err := os.ReadFile(path); err != nil || string(got) != "new bytes" {
			t.Fatalf("%s: file reads %q, %v; want the new bytes", form, got, err)
		}
		checkDir(t, dir, "f")
	}
}

func TestCommitFailureKeepsOldFile(t *testing.T) {
	boom := errors.New("boom")
	for form, commit := range commitForms {
		dir := t.TempDir()
		path := filepath.Join(dir, "f")
		if err := os.WriteFile(path, []byte("old"), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := commit(path, []byte("new bytes"), boom); !errors.Is(err, boom) {
			t.Fatalf("%s: err = %v, want the write's error", form, err)
		}
		if got, err := os.ReadFile(path); err != nil || string(got) != "old" {
			t.Fatalf("%s: file reads %q, %v; want the old bytes", form, got, err)
		}
		checkDir(t, dir, "f")
	}
}

func TestCommitOntoDirectoryFails(t *testing.T) {
	for form, commit := range commitForms {
		dir := t.TempDir()
		path := filepath.Join(dir, "f")
		if err := os.Mkdir(path, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(path, "keep"), []byte("old"), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := commit(path, []byte("new bytes"), nil); err == nil {
			t.Fatalf("%s: renamed a file onto a directory", form)
		}
		if got, err := os.ReadFile(filepath.Join(path, "keep")); err != nil || string(got) != "old" {
			t.Fatalf("%s: the directory's file reads %q, %v; want the old bytes", form, got, err)
		}
		checkDir(t, dir, "f")
	}
}
