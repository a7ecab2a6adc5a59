package disktree

import "encoding/binary"

// decodeCompactReference is the compact decoder as it was before the inline
// fast paths: one sticky-error reader, binary.Uvarint for every field longer
// than a byte. FuzzNodeCodecV2 holds decodeCompact to it on arbitrary bytes.

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

// decodeCompactReference decodes a v2 record, undoing the delta coding of
// encodeNodeCompact with the same wrapping arithmetic.
func decodeCompactReference(b []byte, n *Node, p Ptr) error {
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
