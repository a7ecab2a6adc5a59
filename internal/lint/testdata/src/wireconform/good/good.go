// Package good lays out every frame symmetrically: the boolean if/else
// collapses, the repeated group pairs loop with loop, and the fixed-size
// range unrolls to the decoder's scalar reads.
package good

import "encoding/binary"

// Reader is the fixture's decode cursor.
type Reader struct {
	buf []byte
	off int
}

func (r *Reader) U8() uint8 {
	v := r.buf[r.off]
	r.off++
	return v
}

func (r *Reader) U32() uint32 {
	v := binary.LittleEndian.Uint32(r.buf[r.off:])
	r.off += 4
	return v
}

func (r *Reader) U64() uint64 {
	v := binary.LittleEndian.Uint64(r.buf[r.off:])
	r.off += 8
	return v
}

// Req is a frame with a flag, a repeated group, and a tail field.
type Req struct {
	ID     uint32
	Sparse bool
	Items  []uint64
	Flags  uint32
}

// EncodeReq writes id, flag byte, count-prefixed items, and the tail.
func EncodeReq(b []byte, m Req) []byte {
	b = binary.LittleEndian.AppendUint32(b, m.ID)
	if m.Sparse {
		b = append(b, 1)
	} else {
		b = append(b, 0)
	}
	b = binary.LittleEndian.AppendUint32(b, uint32(len(m.Items)))
	for _, v := range m.Items {
		b = binary.LittleEndian.AppendUint64(b, v)
	}
	return binary.LittleEndian.AppendUint32(b, m.Flags)
}

// DecodeReq mirrors the layout field for field.
func DecodeReq(r *Reader) Req {
	var m Req
	m.ID = r.U32()
	m.Sparse = r.U8() == 1
	n := int(r.U32())
	for i := 0; i < n; i++ {
		m.Items = append(m.Items, r.U64())
	}
	m.Flags = r.U32()
	return m
}

// Pair is written by a fixed-size range that unrolls to two scalars.
type Pair struct {
	A, B uint32
}

// EncodePair ranges over a two-element literal; the unrolled layout is
// exactly two 4-byte scalars.
func EncodePair(b []byte, p Pair) []byte {
	for _, v := range []uint32{p.A, p.B} {
		b = binary.LittleEndian.AppendUint32(b, v)
	}
	return b
}

// DecodePair reads the two scalars straight.
func DecodePair(r *Reader) Pair {
	var p Pair
	p.A = r.U32()
	p.B = r.U32()
	return p
}
