//go:build !unix

package storage

import "errors"

// mapFile on platforms without the unix mmap surface: always refuses, so
// NewSource serves the mmap backend through the buffer pool.
func mapFile(f *File) ([]byte, func([]byte) error, error) {
	return nil, nil, errors.New("storage: mmap is not supported on this platform")
}
