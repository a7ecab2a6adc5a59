package disktree

import (
	"encoding/binary"
	"errors"
	"fmt"

	"twsearch/internal/storage"
)

// ErrTruncated reports a node record that runs past the last page of its
// file.
var ErrTruncated = errors.New("disktree: node record runs past the end of the file")

var (
	// errShort is a decoder's "the record continues past these bytes":
	// not a verdict on the record, which more bytes may complete.
	errShort          = errors.New("disktree: record continues past the bytes at hand")
	errVarintOverflow = errors.New("disktree: varint overflows 64 bits")
)

// Reader reads the node records of one File on behalf of one traversal. It
// keeps the page of the last record borrowed, so a run of records on one
// page — the children of a node sit next to each other in a post-order
// file — costs one PageSource.View, and it decodes each record in place
// from the page's bytes. It holds at most one view at any moment — the only
// sanctioned way a view outlives the statement that borrowed it — and Close
// releases it: whoever owns a Reader closes it on every path out of the
// traversal. A Reader is for one goroutine; concurrent traversals of a File
// use one each. The zero value is ready for Reset.
type Reader struct {
	f       *File
	page    []byte // the borrowed view of page id; nil while none is held
	release func()
	id      storage.PageID
	// spill assembles a record that crosses a page boundary: the tail of
	// its first page and the pages after it, copied out so the same
	// decoders read it.
	spill []byte
}

// Reset releases any held view and binds the reader to f.
func (r *Reader) Reset(f *File) {
	r.Close()
	r.f = f
}

// Close releases the held view, if any. The reader stays usable: the next
// read borrows afresh.
func (r *Reader) Close() {
	if r.release != nil {
		r.release()
	}
	r.page, r.release = nil, nil
}

// view swaps the held view for page id's.
func (r *Reader) view(id storage.PageID) error {
	r.Close()
	//lint:ignore viewescape the reader is the audited owner: the one view it holds sits in its fields until the next view or Close, and every owner of a Reader closes it on every return path
	page, release, err := r.f.src.View(id)
	if err != nil {
		return err
	}
	r.page, r.release, r.id = page, release, id
	return nil
}

// ReadNodeInto decodes the node at p into n, reusing n's Children
// storage: with warm scratch nodes a read allocates nothing.
// Nothing in n references the page.
//
//twlint:steady-state
func (r *Reader) ReadNodeInto(p Ptr, n *Node) error {
	id := storage.PageID(uint64(p) / storage.PageSize)
	if r.page == nil || id != r.id {
		if err := r.view(id); err != nil {
			return err
		}
	}
	head := r.page[uint64(p)%storage.PageSize:]
	err := r.f.decode(head, n, p)
	if err == errShort {
		return r.readSpilled(head, p, n)
	}
	return err
}

// readSpilled decodes the record at p, of which the held page has only the
// head: the record is gathered into the spill buffer, a doubling number of
// pages at a time (a root's child table can span many), until it decodes.
// The reader is left holding the last page gathered.
func (r *Reader) readSpilled(head []byte, p Ptr, n *Node) error {
	r.spill = append(r.spill[:0], head...)
	for pages := 1; ; pages *= 2 {
		gathered := len(r.spill)
		for i := 0; i < pages && r.id+1 < r.f.pf.NumPages(); i++ {
			if err := r.view(r.id + 1); err != nil {
				return err
			}
			r.spill = append(r.spill, r.page...)
		}
		if len(r.spill) == gathered {
			return fmt.Errorf("disktree: node at %d: %w", p, ErrTruncated)
		}
		if err := r.f.decode(r.spill, n, p); err != errShort {
			return err
		}
	}
}

// decode decodes the record that starts at b[0] — the node at p, named in
// errors — into n. errShort means b ends inside the record.
//
//twlint:steady-state
func (f *File) decode(b []byte, n *Node, p Ptr) error {
	n.Children = n.Children[:0]
	if f.meta.enc == EncodingV1 {
		return decodeV1(b, n, p)
	}
	return decodeCompact(b, n, p)
}

// resized returns s with n elements of undefined content, reallocating only
// when its capacity falls short — the warm-up growth of a scratch node.
func resized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// implausible rejects a count no real record carries before anything is
// sized by it. Kept out of line: the decoders are the traversal's hottest
// code after the row kernels, and this is their cold exit.
//
//go:noinline
func implausible(what string, v uint64, p Ptr) error {
	return fmt.Errorf("disktree: implausible %s %d at %d", what, v, p)
}

// maxCount bounds child counts.
const maxCount = 1 << 24

// decodeV1 decodes a fixed-width v1 record.
//
//twlint:steady-state
func decodeV1(b []byte, n *Node, p Ptr) error {
	le := binary.LittleEndian
	if len(b) < 12 {
		return errShort
	}
	n.LabelSeq, n.LabelStart, n.LabelLen = int32(le.Uint32(b)), int32(le.Uint32(b[4:])), int32(le.Uint32(b[8:]))
	if n.LabelLen < 0 {
		return implausible("label length", uint64(le.Uint32(b[8:])), p)
	}
	b = b[12:]
	if len(b) < 1 {
		return errShort
	}
	n.Leaf = b[0]&flagLeaf != 0
	b = b[1:]
	if n.Leaf {
		if len(b) < leafBodySize {
			return errShort
		}
		n.Pos, n.RunLen = int32(le.Uint32(b)), int32(le.Uint32(b[4:]))
		return nil
	}
	if len(b) < 4 {
		return errShort
	}
	count := le.Uint32(b)
	if count > maxCount {
		return implausible("child count", uint64(count), p)
	}
	b = b[4:]
	if len(b) < childEntrySize*int(count) {
		return errShort
	}
	n.Children = resized(n.Children, int(count))
	for i := range n.Children {
		e := b[childEntrySize*i : childEntrySize*(i+1)]
		n.Children[i] = ChildRef{Sym: Symbol(int32(le.Uint32(e))), Ptr: Ptr(le.Uint64(e[4:]))}
	}
	return nil
}

// varints reads the varint fields of a compact record off a byte slice.
// The first failure sticks in err — errShort when the bytes run out inside
// a field, errVarintOverflow for a field no encoder writes — and every
// later read yields zero, so a decoder checks err where a value sizes
// something and once at the end.
type varints struct {
	b   []byte
	off int
	err error
}

func (v *varints) uvarint() uint64 {
	if v.off < len(v.b) && v.b[v.off] < 0x80 {
		v.off++
		return uint64(v.b[v.off-1])
	}
	u, k := binary.Uvarint(v.b[v.off:])
	if k <= 0 {
		if v.err == nil {
			v.err = errShort
			if k < 0 {
				v.err = errVarintOverflow
			}
		}
		v.off = len(v.b)
		return 0
	}
	v.off += k
	return u
}

// varint reads a zigzag-coded signed field.
func (v *varints) varint() int64 {
	u := v.uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

// flags reads the one fixed byte of a compact record.
func (v *varints) flags() byte {
	if v.off < len(v.b) {
		v.off++
		return v.b[v.off-1]
	}
	if v.err == nil {
		v.err = errShort
	}
	return 0
}

// decodeCompact decodes a v2 record, undoing the delta coding of
// encodeNodeCompact with the same wrapping arithmetic.
//
//twlint:steady-state
func decodeCompact(b []byte, n *Node, p Ptr) error {
	v := varints{b: b}
	n.LabelSeq, n.LabelStart = int32(v.varint()), int32(v.varint())
	n.LabelLen = int32(v.varint())
	if n.LabelLen < 0 {
		return implausible("label length", uint64(uint32(n.LabelLen)), p)
	}
	n.Leaf = v.flags()&flagLeaf != 0
	if n.Leaf {
		n.Pos, n.RunLen = int32(v.varint()), int32(v.varint())
		return v.err
	}
	count := v.uvarint()
	if v.err != nil {
		return v.err
	}
	if count > maxCount {
		return implausible("child count", count, p)
	}
	if 2*count > uint64(len(b)-v.off) { // an entry takes two bytes or more
		return errShort
	}
	n.Children = resized(n.Children, int(count))
	prevSym, prevPtr := int64(0), uint64(0)
	for i := range n.Children {
		prevSym += v.varint()
		prevPtr += uint64(v.varint())
		n.Children[i] = ChildRef{Sym: Symbol(int32(prevSym)), Ptr: Ptr(prevPtr)}
	}
	return v.err
}
