package categorize

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sort"

	"twsearch/internal/dtw"
	"twsearch/internal/sequence"
)

// GridScheme is the categorization of points of dimension d > 1, the
// paper's conclusion-section extension: an MTAH-style grid of one
// univariate scheme per dimension; a cell is a combination of per-dimension
// categories; only observed cells get (dense) symbols, each with the
// observed bounding box of its points.
type GridScheme struct {
	dims  []*Scheme
	cells map[uint64]Symbol
	// table is cells laid out by key, one more than the symbol so that zero
	// is an unobserved cell, when the grid is small enough to afford every
	// possible cell an entry; nil otherwise. Every point of the dataset is
	// looked up at every fit, build and open.
	table []Symbol
	boxes []dtw.Box
}

// maxTableCells is the largest grid — the product of its per-dimension
// category counts — that gets a lookup table beside the map (256 KiB).
const maxTableCells = 1 << 16

// newGrid returns the grid over the given per-dimension schemes with no
// cell observed yet.
func newGrid(dims []*Scheme) *GridScheme {
	g := &GridScheme{dims: dims, cells: make(map[uint64]Symbol)}
	product := 1
	for _, s := range dims {
		if product *= s.NumCategories(); product > maxTableCells {
			return g
		}
	}
	g.table = make([]Symbol, product)
	return g
}

// FitGrid fits one univariate categorizer per dimension of data (catsPerDim
// categories each) and assigns dense cell symbols to every observed
// combination. It also returns what it computed on the way: the cell-symbol
// text of every sequence, as Encode gives them. Each coordinate is
// categorized once: the per-dimension boundaries are fitted first, and the
// one pass over the points that finds their cells also fills every
// dimension's counts and observed bounds, in the order Fit would.
func FitGrid(data *sequence.Dataset, kind Kind, catsPerDim int) (*GridScheme, [][]Symbol, error) {
	if data.Len() == 0 {
		return nil, nil, errors.New("categorize: empty dataset")
	}
	dim := data.Dim()
	dims := make([]*Scheme, dim)
	vals := make([]float64, data.TotalElements()) // a fit keeps nothing of its values, so every dimension uses it
	for k := 0; k < dim; k++ {
		at := 0
		for i := 0; i < data.Len(); i++ {
			v := data.Values(i)
			for j := k; j < len(v); j += dim {
				vals[at] = v[j]
				at++
			}
		}
		s, err := fitBounds(kind, vals, catsPerDim, 20)
		if err != nil {
			return nil, nil, fmt.Errorf("categorize: fitting dim %d: %w", k, err)
		}
		dims[k] = s
	}
	// Register every observed cell and grow its box, counting each
	// coordinate in its dimension's category on the way.
	g := newGrid(dims)
	syms := make([]Symbol, data.TotalElements())
	texts := make([][]Symbol, data.Len())
	for i := range texts {
		v := data.Values(i)
		text := syms[: len(v)/dim : len(v)/dim]
		syms = syms[len(text):]
		for j := range text {
			p := v[j*dim : (j+1)*dim]
			key := uint64(0)
			for k, s := range dims {
				sym := s.Symbol(p[k])
				s.count(p[k], sym)
				key = key*uint64(s.NumCategories()) + uint64(sym)
			}
			sym := g.symbolFor(key, p, true)
			text[j] = sym
			box := &g.boxes[sym]
			for k := 0; k < dim; k++ {
				if p[k] < box.Lo[k] {
					box.Lo[k] = p[k]
				}
				if p[k] > box.Hi[k] {
					box.Hi[k] = p[k]
				}
			}
		}
		texts[i] = text
	}
	for _, s := range dims {
		s.settle()
	}
	return g, texts, nil
}

// cellKey mixes per-dimension category indexes into one key.
func (g *GridScheme) cellKey(p []float64) uint64 {
	key := uint64(0)
	for k, s := range g.dims {
		key = key*uint64(s.NumCategories()) + uint64(s.Symbol(p[k]))
	}
	return key
}

// symbolFor returns the dense symbol of the cell with the given key, p's,
// creating it when create is set. It returns -1 for an unseen cell when
// create is false.
func (g *GridScheme) symbolFor(key uint64, p []float64, create bool) Symbol {
	sym := Symbol(-1)
	if g.table != nil {
		sym = g.table[key] - 1
	} else if seen, ok := g.cells[key]; ok {
		sym = seen
	}
	if sym >= 0 || !create {
		return sym
	}
	sym = Symbol(len(g.boxes))
	g.setCell(key, sym)
	g.boxes = append(g.boxes, dtw.Box{Lo: append([]float64(nil), p...), Hi: append([]float64(nil), p...)})
	return sym
}

// setCell records that the cell with the given key has symbol sym.
func (g *GridScheme) setCell(key uint64, sym Symbol) {
	g.cells[key] = sym
	if key < uint64(len(g.table)) {
		g.table[key] = sym + 1
	}
}

// NumCells returns the number of observed cells.
func (g *GridScheme) NumCells() int { return len(g.boxes) }

// Box returns the observed bounding box of a cell symbol.
func (g *GridScheme) Box(sym Symbol) dtw.Box { return g.boxes[sym] }

// Dim returns the dimension of the points the grid categorizes.
func (g *GridScheme) Dim() int { return len(g.dims) }

// Kind returns the per-dimension categorization method.
func (g *GridScheme) Kind() Kind { return g.dims[0].Kind() }

// NumCategories returns the largest per-dimension category count.
func (g *GridScheme) NumCategories() int {
	n := 0
	for _, s := range g.dims {
		n = max(n, s.NumCategories())
	}
	return n
}

// Encode converts a point-major sequence of the grid's dimension, drawn
// from the fitted data, into cell symbols. It returns an error on a point
// from an unseen cell, which cannot happen for fitted sequences.
func (g *GridScheme) Encode(vals []float64) ([]Symbol, error) {
	dim := g.Dim()
	out := make([]Symbol, len(vals)/dim)
	for i := range out {
		p := vals[i*dim : (i+1)*dim]
		sym := g.symbolFor(g.cellKey(p), p, false)
		if sym < 0 {
			return nil, fmt.Errorf("categorize: point %d falls in an unfitted cell", i)
		}
		out[i] = sym
	}
	return out, nil
}

// Grid scheme binary format:
//
//	magic   [8]byte "TWGRID01"
//	dim     uint16
//	per dim: one categorize scheme (its own framed format)
//	cells   uint32, then per cell in ascending key order: key uint64, sym int32
//	boxes   per symbol (ascending): dim × (lo, hi float64)
//
// GridMagic opens every grid stream.
const GridMagic = "TWGRID01"

// ErrBadGridMagic reports that a stream is not a grid scheme.
var ErrBadGridMagic = errors.New("categorize: bad magic, not a TWGRID01 stream")

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
		return nil, fmt.Errorf("categorize: reading grid magic: %w", err)
	}
	if string(magic[:]) != GridMagic {
		return nil, ErrBadGridMagic
	}
	var dim uint16
	if err := binary.Read(br, binary.LittleEndian, &dim); err != nil {
		return nil, err
	}
	if dim == 0 {
		return nil, errors.New("categorize: grid of dimension 0")
	}
	dims := make([]*Scheme, dim)
	for k := range dims {
		s, err := ReadScheme(br)
		if err != nil {
			return nil, fmt.Errorf("categorize: dim %d scheme: %w", k, err)
		}
		dims[k] = s
	}
	g := newGrid(dims)
	var nCells uint32
	if err := binary.Read(br, binary.LittleEndian, &nCells); err != nil {
		return nil, err
	}
	if nCells == 0 {
		return nil, ErrNoCategories
	}
	// The symbols must name the cells one to one: a symbol shared by two
	// cells would bound the points of both by one cell's box, which is no
	// lower bound for the other's. The count is only the stream's word, so
	// the check's table waits until every cell has arrived.
	syms := make([]Symbol, 0, min(nCells, 1<<10))
	var prevKey uint64
	for i := uint32(0); i < nCells; i++ {
		var key uint64
		var sym int32
		if err := binary.Read(br, binary.LittleEndian, &key); err != nil {
			return nil, err
		}
		if err := binary.Read(br, binary.LittleEndian, &sym); err != nil {
			return nil, err
		}
		if i > 0 && key <= prevKey {
			return nil, fmt.Errorf("categorize: grid cell %d: key %d out of ascending order", i, key)
		}
		if sym < 0 || uint32(sym) >= nCells {
			return nil, fmt.Errorf("categorize: grid cell %d: symbol %d of %d cells", i, sym, nCells)
		}
		prevKey = key
		g.setCell(key, Symbol(sym))
		syms = append(syms, Symbol(sym))
	}
	seen := make([]bool, nCells)
	for i, sym := range syms {
		if seen[sym] {
			return nil, fmt.Errorf("categorize: grid cell %d: symbol %d names an earlier cell too", i, sym)
		}
		seen[sym] = true
	}
	g.boxes = make([]dtw.Box, nCells)
	for i := range g.boxes {
		lo := make([]float64, dim)
		hi := make([]float64, dim)
		if err := binary.Read(br, binary.LittleEndian, lo); err != nil {
			return nil, err
		}
		if err := binary.Read(br, binary.LittleEndian, hi); err != nil {
			return nil, err
		}
		g.boxes[i] = dtw.Box{Lo: lo, Hi: hi}
	}
	return g, nil
}
