package storage

import (
	"fmt"
	"sync/atomic"
)

// PageSource is the read surface of a page file: every reader — the disk
// tree's node decoder, its read-ahead, the validation walk — borrows pages
// through View instead of owning copies. Two implementations ship: the
// lock-striped LRU Pool (portable, copy-on-read, bounded memory) and the
// mmap source (zero-copy slices straight out of the page cache, shared
// across processes). Both are safe for any number of concurrent viewers.
type PageSource interface {
	// View borrows page id. The returned slice is exactly PageSize bytes
	// and is valid only until release is called; callers must not retain
	// it, write to it, or let it escape past release. release must be
	// called exactly once, and is safe to call from the goroutine that
	// called View.
	View(id PageID) (page []byte, release func(), err error)
	// File returns the underlying page file.
	File() *File
	// Stats returns the source's unified counters: for a Pool, cache hits,
	// misses and evictions; for an mmap source, Hits counts views served
	// from the mapping.
	Stats() PoolStats
	// ShardStats returns per-stripe counters in stripe order; sources
	// without internal striping report a single entry.
	ShardStats() []PoolStats
	// Close releases the source's resources and closes the underlying file.
	Close() error
}

// Backend names a PageSource implementation for open options and flags.
type Backend string

const (
	// BackendPool reads through the lock-striped LRU buffer pool — the
	// portable default with strictly bounded memory.
	BackendPool Backend = "pool"
	// BackendMmap maps the whole file and serves zero-copy views. Where the
	// file cannot be mapped (a non-unix platform, an in-memory backing, a
	// failed mmap call) it falls back to the pool.
	BackendMmap Backend = "mmap"
)

// ParseBackend validates a backend name from a flag or option. The empty
// string means the default (pool).
func ParseBackend(s string) (Backend, error) {
	switch Backend(s) {
	case "", BackendPool:
		return BackendPool, nil
	case BackendMmap:
		return BackendMmap, nil
	}
	return "", fmt.Errorf("storage: unknown backend %q (want pool or mmap)", s)
}

func (b Backend) String() string {
	if b == "" {
		return string(BackendPool)
	}
	return string(b)
}

// NewSource opens a PageSource over f. poolPages bounds the buffer pool
// when the pool backend is selected, or when mmap falls back to it.
func NewSource(f *File, backend Backend, poolPages int) (PageSource, error) {
	switch backend {
	case "", BackendPool:
		return NewPool(f, poolPages)
	case BackendMmap:
		if src, err := newMappedSource(f); err == nil {
			return src, nil
		}
		// Not mappable here (non-unix platform, in-memory backing, or the
		// map call failed): the bounded pool serves the file instead, so
		// the mmap backend works everywhere, just without the zero-copy win.
		return NewPool(f, poolPages)
	}
	return nil, fmt.Errorf("storage: unknown backend %q", string(backend))
}

// noopRelease is the shared release for sources whose views need no
// per-view cleanup; handing out one package function keeps View
// allocation-free.
func noopRelease() {}

// mmapSource serves views as zero-copy slices of one contiguous read-only
// mapping of the file. The mapping is established at open and lives until
// Close, so views need no pinning: release is a no-op and any number of
// goroutines read concurrently. Platform support comes from mapFile
// (build-tagged); construction goes through newMappedSource.
type mmapSource struct {
	f     *File
	data  []byte
	unmap func([]byte) error
	views atomic.Uint64
}

// newMappedSource maps f and wraps the mapping, or reports why it cannot
// (not file-backed, empty, or an unsupported platform).
func newMappedSource(f *File) (*mmapSource, error) {
	data, unmap, err := mapFile(f)
	if err != nil {
		return nil, err
	}
	return &mmapSource{f: f, data: data, unmap: unmap}, nil
}

func (s *mmapSource) View(id PageID) ([]byte, func(), error) {
	off := int64(id) * PageSize
	if off < 0 || off+PageSize > int64(len(s.data)) {
		return nil, nil, fmt.Errorf("storage: View %d beyond end (%d pages mapped): %w", id, len(s.data)/PageSize, ErrRead)
	}
	s.views.Add(1)
	return s.data[off : off+PageSize : off+PageSize], noopRelease, nil
}

func (s *mmapSource) File() *File { return s.f }

// Stats reports every view as a hit: the mapping never does a read the
// caller waits on (faults are the kernel's business), which is what the
// unified counters mean by "served from cache".
func (s *mmapSource) Stats() PoolStats        { return PoolStats{Hits: s.views.Load()} }
func (s *mmapSource) ShardStats() []PoolStats { return []PoolStats{s.Stats()} }

func (s *mmapSource) Close() error {
	err := s.unmap(s.data)
	s.data = nil
	if cerr := s.f.Close(); err == nil {
		err = cerr
	}
	return err
}
