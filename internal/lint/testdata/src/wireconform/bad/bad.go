// Package bad must trigger wireconform twice: the Header decoder reads the
// nonce at the wrong width, and the Req encoder writes a field only for
// some peers — a layout the decoder cannot know how to parse.
package bad

import "encoding/binary"

// Reader is the fixture's decode cursor; wireconform recognizes its
// accessor methods by receiver type name.
type Reader struct {
	buf []byte
	off int
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

// Header carries a magic word and an 8-byte nonce.
type Header struct {
	Magic uint32
	Nonce uint64
}

// EncodeHeader writes the magic then the full 8-byte nonce.
func EncodeHeader(b []byte, h Header) []byte {
	b = binary.LittleEndian.AppendUint32(b, h.Magic)
	b = binary.LittleEndian.AppendUint64(b, h.Nonce)
	return b
}

// DecodeHeader reads the nonce at half its written width.
func DecodeHeader(r *Reader) Header {
	var h Header
	h.Magic = r.U32()
	h.Nonce = uint64(r.U32())
	return h
}

// Req carries an optional Flags word.
type Req struct {
	ID    uint32
	Flags uint32
}

// EncodeReq writes Flags only for v3+ peers: a data-dependent layout.
func EncodeReq(b []byte, m Req, version uint16) []byte {
	b = binary.LittleEndian.AppendUint32(b, m.ID)
	if version >= 3 {
		b = binary.LittleEndian.AppendUint32(b, m.Flags)
	}
	return b
}

// DecodeReq reads Flags unconditionally, desynchronizing the other frames.
func DecodeReq(r *Reader) Req {
	var m Req
	m.ID = r.U32()
	m.Flags = r.U32()
	return m
}
