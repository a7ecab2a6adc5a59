package multivar

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
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

// WriteBinary serializes the dataset.
func (d *Dataset) WriteBinary(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(vecMagic[:]); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, uint16(d.dim)); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, uint32(len(d.seqs))); err != nil {
		return err
	}
	for _, s := range d.seqs {
		if err := binary.Write(bw, binary.LittleEndian, uint16(len(s.ID))); err != nil {
			return err
		}
		if _, err := bw.WriteString(s.ID); err != nil {
			return err
		}
		if err := binary.Write(bw, binary.LittleEndian, uint32(len(s.Points))); err != nil {
			return err
		}
		for _, p := range s.Points {
			if err := binary.Write(bw, binary.LittleEndian, p); err != nil {
				return err
			}
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
	var dim uint16
	if err := binary.Read(br, binary.LittleEndian, &dim); err != nil {
		return nil, err
	}
	var count uint32
	if err := binary.Read(br, binary.LittleEndian, &count); err != nil {
		return nil, err
	}
	d := NewDataset(int(dim))
	for i := uint32(0); i < count; i++ {
		var idLen uint16
		if err := binary.Read(br, binary.LittleEndian, &idLen); err != nil {
			return nil, fmt.Errorf("multivar: seq %d: %w", i, err)
		}
		idBuf := make([]byte, idLen)
		if _, err := io.ReadFull(br, idBuf); err != nil {
			return nil, err
		}
		var n uint32
		if err := binary.Read(br, binary.LittleEndian, &n); err != nil {
			return nil, err
		}
		if dim == 0 && n > 0 {
			return nil, fmt.Errorf("multivar: seq %d: %d points of dimension 0", i, n)
		}
		// n is whatever the stream says, so the point list grows as points
		// actually arrive: a corrupt length costs a short read, not n slice
		// headers of allocation.
		points := make([][]float64, 0, min(n, 1<<10))
		for j := uint32(0); j < n; j++ {
			p := make([]float64, dim)
			if err := binary.Read(br, binary.LittleEndian, p); err != nil {
				if err == io.EOF {
					err = io.ErrUnexpectedEOF
				}
				return nil, fmt.Errorf("multivar: seq %d point %d: %w", i, j, err)
			}
			points = append(points, p)
		}
		if _, err := d.Add(Sequence{ID: string(idBuf), Points: points}); err != nil {
			return nil, err
		}
	}
	return d, nil
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
	g := &GridScheme{
		dims:  make([]*categorize.Scheme, dim),
		cells: make(map[uint64]suffixtree.Symbol),
	}
	for k := range g.dims {
		s, err := categorize.ReadScheme(br)
		if err != nil {
			return nil, fmt.Errorf("multivar: dim %d scheme: %w", k, err)
		}
		g.dims[k] = s
	}
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
		g.cells[key] = suffixtree.Symbol(sym)
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
