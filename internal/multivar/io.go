package multivar

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sort"

	"twsearch/internal/categorize"
	"twsearch/internal/suffixtree"
)

// Grid scheme binary format:
//
//	magic   [8]byte "TWGRID01"
//	dim     uint16
//	per dim: one categorize scheme (its own framed format)
//	cells   uint32, then per cell: key uint64, sym int32
//	boxes   per symbol (ascending): dim × (lo, hi float64)
//
// GridMagic opens every grid stream.
const GridMagic = "TWGRID01"

// ErrBadGridMagic reports that a stream is not a grid scheme.
var ErrBadGridMagic = errors.New("multivar: bad magic, not a TWGRID01 stream")

// Write serializes the grid scheme.
func (g *GridScheme) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(GridMagic); err != nil {
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
	if string(magic[:]) != GridMagic {
		return nil, ErrBadGridMagic
	}
	var dim uint16
	if err := binary.Read(br, binary.LittleEndian, &dim); err != nil {
		return nil, err
	}
	if dim == 0 {
		return nil, errors.New("multivar: grid of dimension 0")
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
