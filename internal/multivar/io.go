package multivar

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"sort"

	"twsearch/internal/categorize"
	"twsearch/internal/suffixtree"
)

// Vector dataset binary format:
//
//	magic  [8]byte "TWVECDB1"
//	dim    uint16
//	count  uint32
//	per sequence: idLen uint16, id, n uint32, n*dim float64 (row-major)
var vecMagic = [8]byte{'T', 'W', 'V', 'E', 'C', 'D', 'B', '1'}

// ErrBadVecMagic reports that a stream is not a vector dataset.
var ErrBadVecMagic = errors.New("multivar: bad magic, not a TWVECDB1 stream")

// ioChunk is how many coordinates cross a stream in one piece: the size of
// the byte buffer WriteBinary and ReadBinary convert through. readChunk is
// how many coordinates ReadBinary makes room for at a time: the points of a
// sequence share one backing array per readChunk coordinates (per point, when
// a point is larger).
const (
	ioChunk   = 1 << 12
	readChunk = 1 << 16
)

// WriteBinary serializes the dataset.
func (d *Dataset) WriteBinary(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(vecMagic[:]); err != nil {
		return err
	}
	buf := make([]byte, 0, 8*ioChunk)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(d.dim))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(d.seqs)))
	if _, err := bw.Write(buf); err != nil {
		return err
	}
	for i, s := range d.seqs {
		if len(s.ID) > math.MaxUint16 {
			return fmt.Errorf("multivar: sequence %d: id %q too long", i, s.ID[:32])
		}
		if _, err := bw.Write(binary.LittleEndian.AppendUint16(buf[:0], uint16(len(s.ID)))); err != nil {
			return err
		}
		if _, err := bw.WriteString(s.ID); err != nil {
			return err
		}
		buf = binary.LittleEndian.AppendUint32(buf[:0], uint32(len(s.Points)))
		for _, p := range s.Points {
			for _, v := range p {
				if len(buf)+8 > cap(buf) {
					if _, err := bw.Write(buf); err != nil {
						return err
					}
					buf = buf[:0]
				}
				buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
			}
		}
		if _, err := bw.Write(buf); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadBinary parses a stream written by WriteBinary.
func ReadBinary(r io.Reader) (*Dataset, error) {
	br := bufio.NewReader(r)
	var magic [8]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("multivar: reading magic: %w", err)
	}
	if magic != vecMagic {
		return nil, ErrBadVecMagic
	}
	buf := make([]byte, 8*ioChunk)
	if _, err := io.ReadFull(br, buf[:6]); err != nil {
		return nil, err
	}
	dim, count := binary.LittleEndian.Uint16(buf), binary.LittleEndian.Uint32(buf[2:])
	d := NewDataset(int(dim))
	for i := uint32(0); i < count; i++ {
		if _, err := io.ReadFull(br, buf[:2]); err != nil {
			return nil, fmt.Errorf("multivar: seq %d: %w", i, err)
		}
		idBuf := make([]byte, binary.LittleEndian.Uint16(buf))
		if _, err := io.ReadFull(br, idBuf); err != nil {
			return nil, err
		}
		if _, err := io.ReadFull(br, buf[:4]); err != nil {
			return nil, err
		}
		n := binary.LittleEndian.Uint32(buf)
		if dim == 0 && n > 0 {
			return nil, fmt.Errorf("multivar: seq %d: %d points of dimension 0", i, n)
		}
		// n is whatever the stream says, so room is made a chunk of points at
		// a time, as they actually arrive: a corrupt length costs a short
		// read, not n points of allocation.
		points := make([][]float64, 0, min(n, 1<<10))
		for left := int(n); left > 0; {
			take := min(left, max(1, readChunk/int(dim)))
			coords := make([]float64, take*int(dim))
			if err := readCoords(br, coords, buf); err != nil {
				return nil, fmt.Errorf("multivar: seq %d points %d-%d: %w", i, len(points), len(points)+take-1, err)
			}
			for ; len(coords) > 0; coords = coords[dim:] {
				points = append(points, coords[:dim:dim])
			}
			left -= take
		}
		if _, err := d.Add(Sequence{ID: string(idBuf), Points: points}); err != nil {
			return nil, err
		}
	}
	return d, nil
}

// readCoords fills coords with little-endian float64s from r, ioChunk at a
// time through buf. A stream that ends first is io.ErrUnexpectedEOF.
func readCoords(r io.Reader, coords []float64, buf []byte) error {
	for len(coords) > 0 {
		raw := buf[:8*min(len(coords), ioChunk)]
		if _, err := io.ReadFull(r, raw); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return err
		}
		for i := range raw[:len(raw)/8] {
			coords[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
		}
		coords = coords[len(raw)/8:]
	}
	return nil
}

// SaveFile writes the dataset to path.
func (d *Dataset) SaveFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := d.WriteBinary(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// LoadFile reads a dataset file written by SaveFile.
func LoadFile(path string) (*Dataset, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadBinary(f)
}

// Grid scheme binary format:
//
//	magic   [8]byte "TWGRID01"
//	dim     uint16
//	per dim: one categorize scheme (its own framed format)
//	cells   uint32, then per cell: key uint64, sym int32
//	boxes   per symbol (ascending): dim × (lo, hi float64)
var gridMagic = [8]byte{'T', 'W', 'G', 'R', 'I', 'D', '0', '1'}

// ErrBadGridMagic reports that a stream is not a grid scheme.
var ErrBadGridMagic = errors.New("multivar: bad magic, not a TWGRID01 stream")

// Write serializes the grid scheme.
func (g *GridScheme) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(gridMagic[:]); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, uint16(len(g.dims))); err != nil {
		return err
	}
	for _, s := range g.dims {
		if err := s.Write(bw); err != nil {
			return err
		}
	}
	if err := binary.Write(bw, binary.LittleEndian, uint32(len(g.cells))); err != nil {
		return err
	}
	// Deterministic cell order.
	keys := make([]uint64, 0, len(g.cells))
	for k := range g.cells {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	for _, k := range keys {
		if err := binary.Write(bw, binary.LittleEndian, k); err != nil {
			return err
		}
		if err := binary.Write(bw, binary.LittleEndian, int32(g.cells[k])); err != nil {
			return err
		}
	}
	for _, box := range g.boxes {
		if err := binary.Write(bw, binary.LittleEndian, box.Lo); err != nil {
			return err
		}
		if err := binary.Write(bw, binary.LittleEndian, box.Hi); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadGrid parses a stream written by Write.
func ReadGrid(r io.Reader) (*GridScheme, error) {
	br := bufio.NewReader(r)
	var magic [8]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("multivar: reading grid magic: %w", err)
	}
	if magic != gridMagic {
		return nil, ErrBadGridMagic
	}
	var dim uint16
	if err := binary.Read(br, binary.LittleEndian, &dim); err != nil {
		return nil, err
	}
	dims := make([]*categorize.Scheme, dim)
	for k := range dims {
		s, err := categorize.ReadScheme(br)
		if err != nil {
			return nil, fmt.Errorf("multivar: dim %d scheme: %w", k, err)
		}
		dims[k] = s
	}
	g := newGrid(dims)
	var nCells uint32
	if err := binary.Read(br, binary.LittleEndian, &nCells); err != nil {
		return nil, err
	}
	maxSym := suffixtree.Symbol(-1)
	for i := uint32(0); i < nCells; i++ {
		var key uint64
		var sym int32
		if err := binary.Read(br, binary.LittleEndian, &key); err != nil {
			return nil, err
		}
		if err := binary.Read(br, binary.LittleEndian, &sym); err != nil {
			return nil, err
		}
		g.setCell(key, suffixtree.Symbol(sym))
		if suffixtree.Symbol(sym) > maxSym {
			maxSym = suffixtree.Symbol(sym)
		}
	}
	if int(maxSym)+1 != int(nCells) {
		return nil, fmt.Errorf("multivar: grid symbols not dense (%d cells, max symbol %d)", nCells, maxSym)
	}
	g.boxes = make([]Box, nCells)
	for i := range g.boxes {
		lo := make([]float64, dim)
		hi := make([]float64, dim)
		if err := binary.Read(br, binary.LittleEndian, lo); err != nil {
			return nil, err
		}
		if err := binary.Read(br, binary.LittleEndian, hi); err != nil {
			return nil, err
		}
		g.boxes[i] = Box{Lo: lo, Hi: hi}
	}
	return g, nil
}
