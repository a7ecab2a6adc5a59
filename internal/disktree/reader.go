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

// The compact decoder reads its fields at a local offset. A read that fails
// moves the offset past the end of the bytes, and how far past says why:
// len(b)+pastShort when the bytes end inside a field, len(b)+pastOverflow
// for a varint no encoder writes. A read from such an offset yields zero
// and keeps it, so the first failure sticks, and the decoder looks at the
// offset only where a value sizes something and once at the end.
const (
	pastShort    = 1
	pastOverflow = 2
)

// failure returns the error a failed read left in the offset off.
func failure(b []byte, off int) error {
	if off == len(b)+pastOverflow {
		return errVarintOverflow
	}
	return errShort
}

// unzigzag undoes the zigzag coding of a signed field.
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// uvarint12 reads the uvarint at b[off:] if it is one or two bytes long —
// nearly every label, leaf and count field of a real record, and most child
// deltas — and both bytes are in b, and reports whether it did. It is small
// enough to be inlined, which is the point: the decoder takes uvarintSlow
// only where it reports false.
//
//twlint:steady-state
func uvarint12(b []byte, off int) (u uint64, next int, ok bool) {
	if off+1 < len(b) {
		b0, b1 := b[off], b[off+1]
		if b0 < 0x80 {
			return uint64(b0), off + 1, true
		}
		if b1 < 0x80 {
			return uint64(b0&0x7f) | uint64(b1)<<7, off + 2, true
		}
	}
	return 0, off, false
}

// uvarintSlow reads the uvarint at b[off:] that uvarint12 did not. Three
// and four bytes — the first pointer of a child table, an absolute offset,
// is that long — are read here by hand; anything else goes to
// binary.Uvarint, a failure recorded in the returned offset.
//
//twlint:steady-state
//go:noinline
func uvarintSlow(b []byte, off int) (uint64, int) {
	if off+3 < len(b) && b[off]&b[off+1] >= 0x80 {
		u := uint64(b[off]&0x7f) | uint64(b[off+1]&0x7f)<<7
		if b2 := b[off+2]; b2 < 0x80 {
			return u | uint64(b2)<<14, off + 3
		}
		u |= uint64(b[off+2]&0x7f) << 14
		if b3 := b[off+3]; b3 < 0x80 {
			return u | uint64(b3)<<21, off + 4
		}
	}
	if off > len(b) {
		return 0, off // an earlier read failed
	}
	u, k := binary.Uvarint(b[off:])
	switch {
	case k > 0:
		return u, off + k
	case k == 0:
		return 0, len(b) + pastShort
	}
	return 0, len(b) + pastOverflow
}

// decodeCompact decodes a v2 record, undoing the delta coding of
// encodeNodeCompact with the same wrapping arithmetic. Each field is read
// by uvarint12, inline, and by uvarintSlow where that declines.
//
//twlint:steady-state
func decodeCompact(b []byte, n *Node, p Ptr) error {
	var seq, start, length uint64
	off, ok := 0, false
	if seq, off, ok = uvarint12(b, off); !ok {
		seq, off = uvarintSlow(b, off)
	}
	if start, off, ok = uvarint12(b, off); !ok {
		start, off = uvarintSlow(b, off)
	}
	if length, off, ok = uvarint12(b, off); !ok {
		length, off = uvarintSlow(b, off)
	}
	n.LabelSeq, n.LabelStart, n.LabelLen = int32(unzigzag(seq)), int32(unzigzag(start)), int32(unzigzag(length))
	if n.LabelLen < 0 {
		return implausible("label length", uint64(uint32(n.LabelLen)), p)
	}
	if off >= len(b) { // a field failed, or the flags byte is missing
		return failure(b, off)
	}
	n.Leaf = b[off]&flagLeaf != 0
	off++
	if n.Leaf {
		var pos, run uint64
		if pos, off, ok = uvarint12(b, off); !ok {
			pos, off = uvarintSlow(b, off)
		}
		if run, off, ok = uvarint12(b, off); !ok {
			run, off = uvarintSlow(b, off)
		}
		if off > len(b) {
			return failure(b, off)
		}
		n.Pos, n.RunLen = int32(unzigzag(pos)), int32(unzigzag(run))
		return nil
	}
	var count uint64
	if count, off, ok = uvarint12(b, off); !ok {
		count, off = uvarintSlow(b, off)
	}
	if off > len(b) {
		return failure(b, off)
	}
	if count > maxCount {
		return implausible("child count", count, p)
	}
	if 2*count > uint64(len(b)-off) { // an entry takes two bytes or more
		return errShort
	}
	n.Children = resized(n.Children, int(count))
	sym, ptr := int64(0), uint64(0)
	for i := range n.Children {
		var ds, dp uint64
		if off+1 < len(b) && b[off]|b[off+1] < 0x80 { // two one-byte deltas, a leaf's entry: one step
			ds, dp = uint64(b[off]), uint64(b[off+1])
			off += 2
		} else {
			if ds, off, ok = uvarint12(b, off); !ok {
				ds, off = uvarintSlow(b, off)
			}
			if dp, off, ok = uvarint12(b, off); !ok {
				dp, off = uvarintSlow(b, off)
			}
		}
		sym += unzigzag(ds)
		ptr += uint64(unzigzag(dp))
		n.Children[i] = ChildRef{Sym: Symbol(int32(sym)), Ptr: Ptr(ptr)}
	}
	if off > len(b) {
		return failure(b, off)
	}
	return nil
}
