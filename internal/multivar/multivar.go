// Package multivar implements the paper's conclusion-section extension to
// multivariate sequences: elements are vectors, the base distance is the
// city-block distance summed over dimensions, and categorization becomes a
// multi-dimensional grid (an MTAH-style per-dimension categorization whose
// cells are the categories). The same suffix-tree index construction and
// the same lower-bound filtering then apply to the cell-symbol sequences.
//
// A vector sequence is a sequence.Dataset sequence of dimension d > 1, and
// core.Index searches it: this package holds only what the dimension
// changes — the grid, the point rows, the tables and verifier over them,
// the kernel the engine runs, and the exhaustive scan.
package multivar

import (
	"errors"
	"fmt"

	"twsearch/internal/categorize"
	"twsearch/internal/dtw"
	"twsearch/internal/sequence"
	"twsearch/internal/suffixtree"
)

// Rows appends to dst one row per point of vals, a point-major sequence of
// dim-dimensional points — views into vals, not copies — and returns the
// extended slice: the form the kernel, its tables and Distance read points
// in.
func Rows(dst [][]float64, vals []float64, dim int) [][]float64 {
	for i := 0; i+dim <= len(vals); i += dim {
		dst = append(dst, vals[i:i+dim:i+dim])
	}
	return dst
}

// Flatten returns points as one point-major slice: the form sequences and
// queries of every dimension take in sequence.Dataset and seqdb.
func Flatten(points [][]float64) []float64 {
	n := 0
	for _, p := range points {
		n += len(p)
	}
	out := make([]float64, 0, n)
	for _, p := range points {
		out = append(out, p...)
	}
	return out
}

// Base is the multivariate D_base: city-block distance summed over
// dimensions.
func Base(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		s += dtw.Base(a[i], b[i])
	}
	return s
}

// Box is a per-dimension interval — the observed bounding box of one grid
// cell, the multivariate analogue of [B.lb, B.ub].
type Box struct {
	Lo, Hi []float64
}

// BaseBox is the multivariate D_base-lb: the minimum possible Base distance
// between the point p and any point inside the box.
func BaseBox(p []float64, b Box) float64 {
	s := 0.0
	for i := range p {
		s += dtw.BaseInterval(p[i], b.Lo[i], b.Hi[i])
	}
	return s
}

// Distance is the multivariate time warping distance.
func Distance(a, b [][]float64) float64 {
	if len(a) == 0 || len(b) == 0 {
		//lint:ignore panicpath precondition assertion: the engine validates queries before the kernel; a silent zero distance would break exactness
		panic("multivar: distance of empty sequence")
	}
	prev := make([]float64, len(b))
	curr := make([]float64, len(b))
	for x := 0; x < len(a); x++ {
		for y := 0; y < len(b); y++ {
			base := Base(a[x], b[y])
			switch {
			case x == 0 && y == 0:
				curr[y] = base
			case x == 0:
				curr[y] = base + curr[y-1]
			case y == 0:
				curr[y] = base + prev[y]
			default:
				m := curr[y-1]
				if prev[y] < m {
					m = prev[y]
				}
				if prev[y-1] < m {
					m = prev[y-1]
				}
				curr[y] = base + m
			}
		}
		prev, curr = curr, prev
	}
	return prev[len(b)-1]
}

// GridScheme is an MTAH-style multi-dimensional categorization: one
// univariate scheme per dimension; a cell is a combination of per-dimension
// categories; only observed cells get (dense) symbols, each with the
// observed bounding box of its points.
type GridScheme struct {
	dims  []*categorize.Scheme
	cells map[uint64]suffixtree.Symbol
	// table is cells laid out by key, one more than the symbol so that zero
	// is an unobserved cell, when the grid is small enough to afford every
	// possible cell an entry; nil otherwise. Every point of the dataset is
	// looked up at every fit, build and open.
	table []suffixtree.Symbol
	boxes []Box
}

// maxTableCells is the largest grid — the product of its per-dimension
// category counts — that gets a lookup table beside the map (256 KiB).
const maxTableCells = 1 << 16

// newGrid returns the grid over the given per-dimension schemes with no
// cell observed yet.
func newGrid(dims []*categorize.Scheme) *GridScheme {
	g := &GridScheme{dims: dims, cells: make(map[uint64]suffixtree.Symbol)}
	product := 1
	for _, s := range dims {
		if product *= s.NumCategories(); product > maxTableCells {
			return g
		}
	}
	g.table = make([]suffixtree.Symbol, product)
	return g
}

// FitGrid fits one univariate categorizer per dimension of data (catsPerDim
// categories each) and assigns dense cell symbols to every observed
// combination. It also returns what it computed on the way: the cell-symbol
// text of every sequence, as Encode gives them.
func FitGrid(data *sequence.Dataset, kind categorize.Kind, catsPerDim int) (*GridScheme, *suffixtree.TextStore, error) {
	if data.Len() == 0 {
		return nil, nil, errors.New("multivar: empty dataset")
	}
	dim := data.Dim()
	dims := make([]*categorize.Scheme, dim)
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
		s, err := categorize.Fit(kind, vals, catsPerDim, 20)
		if err != nil {
			return nil, nil, fmt.Errorf("multivar: fitting dim %d: %w", k, err)
		}
		dims[k] = s
	}
	// Register every observed cell and grow its box.
	g := newGrid(dims)
	store := suffixtree.NewTextStore()
	var syms []suffixtree.Symbol
	for i := 0; i < data.Len(); i++ {
		syms = syms[:0]
		v := data.Values(i)
		for j := 0; j < len(v); j += dim {
			p := v[j : j+dim]
			sym := g.symbolFor(p, true)
			syms = append(syms, sym)
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
		store.Add(syms)
	}
	return g, store, nil
}

// cellKey mixes per-dimension category indexes into one key.
func (g *GridScheme) cellKey(p []float64) uint64 {
	key := uint64(0)
	for k, s := range g.dims {
		key = key*uint64(s.NumCategories()) + uint64(s.Symbol(p[k]))
	}
	return key
}

// symbolFor returns the dense symbol of p's cell, creating it when create
// is set. It returns -1 for an unseen cell when create is false.
func (g *GridScheme) symbolFor(p []float64, create bool) suffixtree.Symbol {
	key := g.cellKey(p)
	sym := suffixtree.Symbol(-1)
	if g.table != nil {
		sym = g.table[key] - 1
	} else if seen, ok := g.cells[key]; ok {
		sym = seen
	}
	if sym >= 0 || !create {
		return sym
	}
	sym = suffixtree.Symbol(len(g.boxes))
	g.setCell(key, sym)
	g.boxes = append(g.boxes, Box{Lo: append([]float64(nil), p...), Hi: append([]float64(nil), p...)})
	return sym
}

// setCell records that the cell with the given key has symbol sym.
func (g *GridScheme) setCell(key uint64, sym suffixtree.Symbol) {
	g.cells[key] = sym
	if key < uint64(len(g.table)) {
		g.table[key] = sym + 1
	}
}

// NumCells returns the number of observed cells.
func (g *GridScheme) NumCells() int { return len(g.boxes) }

// Box returns the observed bounding box of a cell symbol.
func (g *GridScheme) Box(sym suffixtree.Symbol) Box { return g.boxes[sym] }

// Dim returns the dimension of the points the grid categorizes.
func (g *GridScheme) Dim() int { return len(g.dims) }

// Kind returns the per-dimension categorization method.
func (g *GridScheme) Kind() categorize.Kind { return g.dims[0].Kind() }

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
func (g *GridScheme) Encode(vals []float64) ([]suffixtree.Symbol, error) {
	dim := g.Dim()
	out := make([]suffixtree.Symbol, len(vals)/dim)
	for i := range out {
		sym := g.symbolFor(vals[i*dim:(i+1)*dim], false)
		if sym < 0 {
			return nil, fmt.Errorf("multivar: point %d falls in an unfitted cell", i)
		}
		out[i] = sym
	}
	return out, nil
}
