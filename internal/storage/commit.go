package storage

import (
	"io"
	"os"
	"path/filepath"
)

// Commit writes the file at path through write and puts it in place whole:
// write fills a scratch file in a fresh directory next to path, which is
// renamed onto path once write and the close succeed, and the scratch
// directory is removed either way. Every file a database keeps is written
// through Commit or CommitPath. Nothing is fsynced yet.
func Commit(path string, write func(io.Writer) error) error {
	return CommitPath(path, func(tmp string) error {
		f, err := os.Create(tmp)
		if err != nil {
			return err
		}
		err = write(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		return err
	})
}

// CommitPath is Commit for a writer that makes its file itself: write
// creates, fills and closes the file at the scratch path tmp.
func CommitPath(path string, write func(tmp string) error) error {
	scratch, err := os.MkdirTemp(filepath.Dir(path), ".commit-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(scratch)
	tmp := filepath.Join(scratch, filepath.Base(path))
	if err := write(tmp); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}
