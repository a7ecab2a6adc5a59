// Package storage provides the disk substrate for the disk-based suffix
// tree: a page-addressed file that writers extend sequentially, and an LRU
// buffer pool with pin counting that readers share. A page file is written
// once, front to back, and afterwards only read.
//
// The paper (Section 4.1) keeps the tree on disk so that searches run in
// limited main memory; the buffer pool is what bounds that memory, and its
// hit/miss counters feed the benchmark harness's I/O accounting.
package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"sync/atomic"
)

// PageSize is the fixed size of every page in bytes.
const PageSize = 4096

// PageID addresses a page within a File. Page 0 is the meta page; data
// pages follow it.
type PageID uint32

// InvalidPage is the nil page reference.
const InvalidPage PageID = ^PageID(0)

// ErrRead marks a failure to read what an index file should hold: the
// backing failed, or the file is shorter than it was when opened, or a
// record in it cannot be what it claims. errors.Is finds it under every
// page read failure here and every node read failure in disktree. It is a
// fault of the files, never of the request that met it.
var ErrRead = errors.New("index file unreadable")

const (
	fileMagic   = "TWPAGES1"
	metaCapSize = PageSize - len(fileMagic) - 4 // magic + meta length prefix
)

// backing abstracts where pages live: an OS file or a growable in-memory
// buffer.
type backing interface {
	io.ReaderAt
	io.WriterAt
	Sync() error
	Close() error
}

// memBacking is a growable in-memory byte store implementing backing; it
// powers ":memory:" page files for ephemeral indexes.
type memBacking struct {
	data []byte
}

func (m *memBacking) ReadAt(p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, fmt.Errorf("storage: mem read at negative offset %d", off)
	}
	// io.ReaderAt contract: reads at or past end-of-data return io.EOF, and
	// a partial read at the tail returns n < len(p) with io.EOF — the same
	// answers an *os.File gives, so generic consumers (io.SectionReader,
	// PageSource fallbacks) treat both backings alike.
	if off >= int64(len(m.data)) {
		return 0, io.EOF
	}
	n := copy(p, m.data[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

func (m *memBacking) WriteAt(p []byte, off int64) (int, error) {
	end := off + int64(len(p))
	if grow := end - int64(len(m.data)); grow > 0 {
		// append's amortized doubling: a tree streamed out in chunks must
		// not recopy the whole backing on every extension.
		m.data = append(m.data, make([]byte, grow)...)
	}
	return copy(m.data[off:], p), nil
}

func (m *memBacking) Sync() error  { return nil }
func (m *memBacking) Close() error { return nil }

// MemoryPath is the Path() of in-memory page files.
const MemoryPath = ":memory:"

// File is a page-addressed file. Reads (ReadPage, Meta) are safe for
// concurrent use — they go through ReaderAt and an atomic counter — so any
// number of searches may share one File through a PageSource. Writes
// (AppendPages, SetMeta) are single-writer: a build owns the file it
// created until it closes it. A file opened read-only holds a read-only
// descriptor, so the OS refuses its writes.
type File struct {
	f        backing
	path     string
	numPages PageID

	// pagesRead counts physical page reads.
	pagesRead atomic.Uint64
}

// CreateMemFile creates a page file backed by process memory — no
// filesystem involved. Tests and fuzz targets build on it.
func CreateMemFile() (*File, error) { return newFile(&memBacking{}, MemoryPath) }

// CreateFile creates (or truncates) a page file with an empty meta page.
func CreateFile(path string) (*File, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	return newFile(f, path)
}

// newFile starts a page file on b: an empty meta page and nothing after it.
func newFile(b backing, path string) (*File, error) {
	pf := &File{f: b, path: path, numPages: 1}
	if err := pf.SetMeta(nil); err != nil {
		b.Close()
		return nil, err
	}
	return pf, nil
}

// OpenFile opens an existing page file, verifying its magic. A read-only
// open holds a read-only descriptor; readers open files that way, and a
// read-write open is for tests that patch a written file in place.
func OpenFile(path string, readOnly bool) (*File, error) {
	flag := os.O_RDWR
	if readOnly {
		flag = os.O_RDONLY
	}
	f, err := os.OpenFile(path, flag, 0)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	if st.Size() < PageSize || st.Size()%PageSize != 0 {
		f.Close()
		return nil, fmt.Errorf("storage: %s: size %d is not a whole number of pages", path, st.Size())
	}
	magic := make([]byte, len(fileMagic))
	if _, err := f.ReadAt(magic, 0); err != nil {
		f.Close()
		return nil, err
	}
	if string(magic) != fileMagic {
		f.Close()
		return nil, fmt.Errorf("storage: %s: bad magic", path)
	}
	return &File{f: f, path: path, numPages: PageID(st.Size() / PageSize)}, nil
}

// Path returns the file's path.
func (pf *File) Path() string { return pf.path }

// NumPages returns the number of pages including the meta page.
func (pf *File) NumPages() PageID { return pf.numPages }

// SizeBytes returns the file size in bytes.
func (pf *File) SizeBytes() int64 { return int64(pf.numPages) * PageSize }

// PagesRead returns the number of physical page reads since open.
func (pf *File) PagesRead() uint64 { return pf.pagesRead.Load() }

// AppendPages extends the file by len(buf)/PageSize pages holding buf (a
// whole number of pages) and returns the id of the first: each page
// reaches the backing exactly once, in order.
func (pf *File) AppendPages(buf []byte) (PageID, error) {
	if len(buf)%PageSize != 0 {
		return InvalidPage, fmt.Errorf("storage: AppendPages buffer is %d bytes", len(buf))
	}
	id := pf.numPages
	if _, err := pf.f.WriteAt(buf, int64(id)*PageSize); err != nil {
		return InvalidPage, fmt.Errorf("storage: appending at page %d: %w", id, err)
	}
	pf.numPages += PageID(len(buf) / PageSize)
	return id, nil
}

// WriteBack asks the OS to start writing pages [id, id+n) back to stable
// storage, and returns without waiting for it. It is a hint (writeBack):
// Sync alone makes the pages durable, and finds less left to write after
// it. A build calls it for each chunk it appends, so the disk works while
// the rest of the tree is encoded.
func (pf *File) WriteBack(id PageID, n int) {
	writeBack(pf.f, int64(id)*PageSize, int64(n)*PageSize)
}

// ReadPage fills buf (which must be PageSize long) with page id.
func (pf *File) ReadPage(id PageID, buf []byte) error {
	if len(buf) != PageSize {
		return fmt.Errorf("storage: ReadPage buffer is %d bytes", len(buf))
	}
	if id >= pf.numPages {
		return fmt.Errorf("storage: ReadPage %d beyond end (%d pages): %w", id, pf.numPages, ErrRead)
	}
	if _, err := pf.f.ReadAt(buf, int64(id)*PageSize); err != nil {
		if err == io.EOF {
			// The page was inside the file when it was opened: the file
			// has been cut since, and the read came up short.
			err = io.ErrUnexpectedEOF
		}
		return fmt.Errorf("storage: reading page %d: %w: %w", id, ErrRead, err)
	}
	pf.pagesRead.Add(1)
	return nil
}

// SetMeta stores an application blob in the meta page. The blob must fit in
// one page after the magic and length prefix (about 4 KiB).
func (pf *File) SetMeta(blob []byte) error {
	if len(blob) > metaCapSize {
		return fmt.Errorf("storage: meta blob %d bytes exceeds %d", len(blob), metaCapSize)
	}
	page := make([]byte, PageSize)
	copy(page, fileMagic)
	binary.LittleEndian.PutUint32(page[len(fileMagic):], uint32(len(blob)))
	copy(page[len(fileMagic)+4:], blob)
	if _, err := pf.f.WriteAt(page, 0); err != nil {
		return fmt.Errorf("storage: writing meta page: %w", err)
	}
	return nil
}

// Meta returns the application blob stored by SetMeta (empty if none).
func (pf *File) Meta() ([]byte, error) {
	page := make([]byte, PageSize)
	if _, err := pf.f.ReadAt(page, 0); err != nil {
		return nil, fmt.Errorf("storage: reading meta page: %w", err)
	}
	pf.pagesRead.Add(1)
	n := binary.LittleEndian.Uint32(page[len(fileMagic):])
	if int(n) > metaCapSize {
		return nil, errors.New("storage: corrupt meta length")
	}
	blob := make([]byte, n)
	copy(blob, page[len(fileMagic)+4:])
	return blob, nil
}

// Sync flushes the file to stable storage.
func (pf *File) Sync() error { return pf.f.Sync() }

// Close closes the underlying file.
func (pf *File) Close() error { return pf.f.Close() }
