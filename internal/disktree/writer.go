package disktree

import (
	"twsearch/internal/storage"
)

// appendChunkPages is how many pages the appender gathers before one write:
// large enough that a build is a few dozen sequential writes per megabyte
// of tree, small enough (two chunks of 256 KiB) not to show in the build's
// footprint.
const appendChunkPages = 64

// pageSink is where the appender's chunks go: the page file being built,
// which starts writing each chunk back to disk once it has it.
type pageSink interface {
	AppendPages(buf []byte) (storage.PageID, error)
	WriteBack(id storage.PageID, n int)
}

// appender writes a byte stream into consecutive pages at the end of a page
// file, returning absolute offsets. It fills one chunk while the flusher
// goroutine (flushLoop) writes the other, so encoding goes on while a write
// waits for the page cache; each page is handed to the file exactly once, in
// order.
type appender struct {
	sink pageSink
	base uint64 // absolute offset of buf[0]
	buf  []byte
	// full carries each filled chunk to the flusher; spare brings the other
	// chunk back with what became of its write. Two chunks exist and the
	// producer holds one, so spare never holds more than one.
	full  chan []byte
	spare chan flushed
}

// flushed is a chunk back from the flusher: empty again, with the error of
// the first write that failed, if any has.
type flushed struct {
	buf []byte
	err error
}

func newAppender(pf *storage.File) appender {
	a := appender{
		sink:  pf,
		base:  uint64(pf.NumPages()) * storage.PageSize,
		buf:   make([]byte, 0, appendChunkPages*storage.PageSize),
		full:  make(chan []byte),
		spare: make(chan flushed, 1),
	}
	a.spare <- flushed{buf: make([]byte, 0, cap(a.buf))}
	return a
}

// flushLoop is the flusher: it appends each chunk the producer hands over to
// the file, starts its write-back, and hands it back, until the producer
// closes full, and returns the first write error. After a failed write
// nothing more is written. The write-back is only begun here, so the
// build's closing Sync finds most of the tree on disk already.
func (a *appender) flushLoop() error {
	var err error
	for buf := range a.full {
		if err == nil {
			var id storage.PageID
			if id, err = a.sink.AppendPages(buf); err == nil {
				a.sink.WriteBack(id, len(buf)/storage.PageSize)
			}
		}
		a.spare <- flushed{buf[:0], err}
	}
	return err
}

// offset returns the absolute byte offset the next write lands at.
func (a *appender) offset() Ptr { return Ptr(a.base + uint64(len(a.buf))) }

func (a *appender) write(b []byte) error {
	for len(b) > 0 {
		if len(a.buf) == cap(a.buf) {
			if err := a.flush(); err != nil {
				return err
			}
		}
		n := copy(a.buf[len(a.buf):cap(a.buf)], b)
		a.buf = a.buf[:len(a.buf)+n]
		b = b[n:]
	}
	return nil
}

// flush hands the buffered pages (a whole number of them) to the flusher and
// carries on in the other chunk. The error is that of an earlier chunk's
// write; this one's is reported with the next, or by flushLoop.
func (a *appender) flush() error {
	if len(a.buf) == 0 {
		return nil
	}
	a.full <- a.buf
	a.base += uint64(len(a.buf))
	back := <-a.spare
	a.buf = back.buf
	return back.err
}

// finish zero-pads the last page and hands over what is buffered.
func (a *appender) finish() error {
	pad := (storage.PageSize - len(a.buf)%storage.PageSize) % storage.PageSize
	a.buf = append(a.buf, make([]byte, pad)...)
	return a.flush()
}

// treeWriter is the output half of both constructions — createOn's
// serialization of an in-memory tree and Build's sort-and-stream pass: node
// records appended in post-order (children before their parent, so every
// child offset is known when the parent is encoded), with the meta counters
// kept alongside.
type treeWriter struct {
	pf      *storage.File
	app     appender
	meta    meta
	scratch []byte
	// kids stacks the child entries of the nodes not yet written, the
	// deepest node's last: a writer notes len(kids) when it starts on a
	// node's children, attaches each child as it is written, and emits the
	// node with everything from that mark on as its child table.
	kids []ChildRef
}

// newTreeWriter starts a tree of mt's shape (sparseness, length filter,
// encoding — v2 unless one is named) on the freshly created pf.
func newTreeWriter(pf *storage.File, mt meta) *treeWriter {
	if mt.enc == 0 {
		mt.enc = EncodingV2
	}
	return &treeWriter{pf: pf, app: newAppender(pf), meta: mt}
}

// lengthFilter is the meta form of a minimum suffix length: 0 and 1 both
// mean every suffix is stored.
func lengthFilter(minSuffixLen int) uint32 {
	if minSuffixLen > 1 {
		return uint32(minSuffixLen)
	}
	return 0
}

// emit appends n's record, with the entries attached since the mark first
// as its child table, pops them, and returns the record's offset.
func (w *treeWriter) emit(n *Node, first int) (Ptr, error) {
	n.Children = w.kids[first:]
	w.kids = w.kids[:first]
	w.meta.nodes++
	w.meta.labelSyms += uint64(n.LabelLen)
	if n.Leaf {
		w.meta.leaves++
	}
	ptr := w.app.offset()
	if a := &w.app; cap(a.buf)-len(a.buf) >= maxRecordSize(len(n.Children)) {
		a.buf = encodeNode(a.buf, n, w.meta.enc, ptr, w.meta.sparse) // fits the chunk whatever the encoding: no copy
		return ptr, nil
	}
	w.scratch = encodeNode(w.scratch[:0], n, w.meta.enc, ptr, w.meta.sparse)
	return ptr, w.app.write(w.scratch)
}

// attach pushes the child-table entry of the node just written at ptr,
// whose label starts with first.
func (w *treeWriter) attach(first Symbol, ptr Ptr) {
	w.kids = append(w.kids, ChildRef{Sym: first, Ptr: ptr})
}

// write runs records — which emits the tree's nodes through w and returns
// the root's offset — beside the flusher goroutine, then persists the meta
// blob naming the root and syncs. The flusher has exited when write
// returns, whatever failed. On failure the page file is closed; removing it
// is up to whoever named its path.
func (w *treeWriter) write(records func() (Ptr, error)) error {
	flushing := make(chan error, 1)
	go func() { flushing <- w.app.flushLoop() }()
	root, err := records()
	if err == nil {
		err = w.app.finish()
	}
	close(w.app.full)
	if ferr := <-flushing; err == nil {
		err = ferr
	}
	if err == nil {
		w.meta.root = root
		err = w.pf.SetMeta(encodeMeta(w.meta))
	}
	if err == nil {
		err = w.pf.Sync()
	}
	if err != nil {
		w.pf.Close()
	}
	return err
}
