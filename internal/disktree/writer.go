package disktree

import (
	"twsearch/internal/storage"
)

// appendChunkPages is how many pages the appender gathers before one write:
// large enough that a build is a few dozen sequential writes per megabyte
// of tree, small enough (256 KiB) not to show in the build's footprint.
const appendChunkPages = 64

// appender writes a byte stream into consecutive pages at the end of a page
// file, returning absolute offsets. It buffers whole chunks and hands each
// page to the file exactly once.
type appender struct {
	pf   *storage.File
	base uint64 // absolute offset of buf[0]
	buf  []byte
}

func newAppender(pf *storage.File) appender {
	return appender{
		pf:   pf,
		base: uint64(pf.NumPages()) * storage.PageSize,
		buf:  make([]byte, 0, appendChunkPages*storage.PageSize),
	}
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

// flush appends the buffered pages (a whole number of them) to the file.
func (a *appender) flush() error {
	if len(a.buf) == 0 {
		return nil
	}
	if _, err := a.pf.AppendPages(a.buf); err != nil {
		return err
	}
	a.base += uint64(len(a.buf))
	a.buf = a.buf[:0]
	return nil
}

// close zero-pads the last page and writes out what is buffered.
func (a *appender) close() error {
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
// encoding) on the freshly created pf.
func newTreeWriter(pf *storage.File, mt meta) *treeWriter {
	if mt.enc == 0 {
		mt.enc = EncodingV1
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
	w.scratch = encodeNode(w.scratch[:0], n, w.meta.enc)
	return ptr, w.app.write(w.scratch)
}

// attach pushes the child-table entry of the node just written at ptr,
// whose label starts with first.
func (w *treeWriter) attach(first Symbol, ptr Ptr) {
	w.kids = append(w.kids, ChildRef{Sym: first, Ptr: ptr})
}

// finish flushes the records, persists the meta blob naming root, syncs,
// and returns the tree open through a pool of poolPages. On failure the
// page file is closed; removing it is up to whoever named its path.
func (w *treeWriter) finish(root Ptr, poolPages int) (*File, error) {
	w.meta.root = root
	err := w.app.close()
	if err == nil {
		err = w.pf.SetMeta(encodeMeta(w.meta))
	}
	if err == nil {
		err = w.pf.Sync()
	}
	if err != nil {
		return nil, w.abort(err)
	}
	pool, err := storage.NewPool(w.pf, poolPages)
	if err != nil {
		return nil, w.abort(err)
	}
	return &File{pf: w.pf, src: pool, meta: w.meta}, nil
}

// abort closes the half-written page file and returns err.
func (w *treeWriter) abort(err error) error {
	w.pf.Close()
	return err
}
