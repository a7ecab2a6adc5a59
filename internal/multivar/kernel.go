package multivar

import (
	"twsearch/internal/dtw"
	"twsearch/internal/sequence"
	"twsearch/internal/suffixtree"
)

// Kernel is the multivariate core.Kernel: symbols are grid cells with
// bounding boxes, filter rows use the box lower bound of the city-block
// base distance, verification rows the exact distance to the raw point, and
// the gate one Sakoe–Chiba envelope per dimension — sound dimension-wise
// because the base distance and the envelope gap both sum over dimensions
// independently. Grid filter distances are never taken as exact, so every
// candidate is verified.
type Kernel struct {
	data *sequence.Dataset
	grid *GridScheme

	// q is the bound query's points: row views into the caller's slice.
	q     [][]float64
	table Table
	// bases caches each cell's box row against the query, so a filter row
	// is a lookup and the DP.
	bases  dtw.BaseRows
	verify Verifier
	// envs[k] is the envelope of the query's k-th coordinate series under
	// the filter window (constant on sparse trees); qDim[k] backs it.
	envs []dtw.Envelope
	qDim [][]float64
}

// NewKernel returns a kernel over data and its grid.
func NewKernel(data *sequence.Dataset, grid *GridScheme) *Kernel {
	return &Kernel{data: data, grid: grid}
}

// Bind points the kernel at a point-major query of the grid's dimension:
// the filter table and the envelopes (when envelopes is set) under
// filterWindow, the verifier under window with eps as its threshold.
func (k *Kernel) Bind(flat []float64, filterWindow, window int, eps float64, envelopes bool) {
	dim := k.grid.Dim()
	q := Rows(k.q[:0], flat, dim)
	k.q = q
	k.table.Bind(q, filterWindow)
	k.bases.Bind(len(q), k.grid.NumCells())
	k.verify.Bind(q, window, eps)
	if !envelopes {
		return
	}
	for len(k.envs) < dim {
		k.envs = append(k.envs, dtw.Envelope{})
		k.qDim = append(k.qDim, nil)
	}
	for d := 0; d < dim; d++ {
		qd := k.qDim[d][:0]
		for _, p := range q {
			qd = append(qd, p[d])
		}
		k.qDim[d] = qd
		k.envs[d].Bind(qd, filterWindow)
	}
}

func (k *Kernel) QueryLen() int { return len(k.q) }
func (k *Kernel) Exact() bool   { return false }

func (k *Kernel) Base0(sym suffixtree.Symbol) float64 {
	return BaseBox(k.q[0], k.grid.Box(sym))
}

//twlint:steady-state
func (k *Kernel) Gap(x int, sym suffixtree.Symbol) float64 {
	box := k.grid.Box(sym)
	g := 0.0
	for d := range k.envs {
		elo, ehi := k.envs[d].At(x)
		g += dtw.GapInterval(box.Lo[d], box.Hi[d], elo, ehi)
	}
	return g
}

//twlint:steady-state
func (k *Kernel) AddRow(sym suffixtree.Symbol) (dist, minDist float64) {
	row, cached := k.bases.Row(int32(sym))
	if !cached {
		box := k.grid.Box(sym)
		for y, p := range k.q {
			row[y] = BaseBox(p, box)
		}
	}
	return k.table.AddRowBase(row)
}

//twlint:steady-state
func (k *Kernel) Truncate(depth int) { k.table.Truncate(depth) }

//twlint:steady-state
func (k *Kernel) Dead(seq, start int) bool { return k.verify.Dead(k.data.Values(seq), start) }

//twlint:steady-state
func (k *Kernel) Verify(seq, start, end int, hit func(end int, dist float64)) {
	k.verify.Scan(k.data.Values(seq), start, end, hit)
}

func (k *Kernel) Cells() (filter, post uint64) { return k.table.Cells(), k.verify.Cells() }
