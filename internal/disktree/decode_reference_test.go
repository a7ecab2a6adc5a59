package disktree

import (
	"encoding/binary"
	"math"
)

// decodeCompactReference is the compact decoder without the inline fast
// paths: one sticky-error reader, binary.Uvarint for every field longer than
// a byte. FuzzNodeCodecV2 holds decodeCompact to it on arbitrary bytes.

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

// decodeCompactReference decodes the v2 record at p of a sparse or a dense
// tree, undoing the offset and delta coding of encodeNodeCompact with the
// same wrapping arithmetic.
func decodeCompactReference(b []byte, n *Node, p Ptr, sparse bool) error {
	v := varints{b: b}
	head := v.uvarint()
	n.LabelSeq, n.Leaf = int32(uint32(head>>1)), head&1 != 0
	if n.Leaf {
		pos, lead, length := v.uvarint(), v.uvarint(), v.uvarint()
		var run uint64
		if sparse {
			run = v.uvarint()
		}
		if v.err != nil {
			return v.err
		}
		if length > math.MaxInt32 {
			return implausible("label length", length, p)
		}
		n.Pos, n.RunLen = int32(pos), int32(run)
		n.LabelStart, n.LabelLen = n.Pos+int32(lead), int32(length)
		return nil
	}
	start, length, count := v.uvarint(), v.uvarint(), v.uvarint()
	if v.err != nil {
		return v.err
	}
	if length > math.MaxInt32 {
		return implausible("label length", length, p)
	}
	n.LabelStart, n.LabelLen = int32(start), int32(length)
	if count > maxCount {
		return implausible("child count", count, p)
	}
	if 2*count > uint64(len(b)-v.off) { // an entry takes two bytes or more
		return errShort
	}
	n.Children = resized(n.Children, int(count))
	for i := range n.Children {
		if i == 0 {
			n.Children[0] = ChildRef{Sym: Symbol(int32(v.varint())), Ptr: p - Ptr(v.uvarint())}
			continue
		}
		prev := n.Children[i-1]
		n.Children[i] = ChildRef{Sym: prev.Sym + Symbol(int32(v.uvarint())), Ptr: prev.Ptr + Ptr(v.uvarint())}
	}
	return v.err
}
