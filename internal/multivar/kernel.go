package multivar

import (
	"twsearch/internal/dtw"
	"twsearch/internal/suffixtree"
)

// vectorKernel is the multivariate core.Kernel: symbols are grid cells with
// bounding boxes, filter rows use the box lower bound of the city-block
// base distance, verification rows the exact distance to the raw point, and
// the gate one Sakoe–Chiba envelope per dimension — sound dimension-wise
// because the base distance and the envelope gap both sum over dimensions
// independently. Grid filter distances are never taken as exact, so every
// candidate is verified.
type vectorKernel struct {
	data *Dataset
	grid *GridScheme

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

func (k *vectorKernel) bind(q [][]float64, filterWindow, window int, eps float64, envelopes bool) {
	k.q = q
	k.table.Bind(q, filterWindow)
	k.bases.Bind(len(q), k.grid.NumCells())
	k.verify.Bind(q, window, eps)
	if !envelopes {
		return
	}
	dim := k.data.Dim()
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

func (k *vectorKernel) QueryLen() int { return len(k.q) }
func (k *vectorKernel) Exact() bool   { return false }

func (k *vectorKernel) Base0(sym suffixtree.Symbol) float64 {
	return BaseBox(k.q[0], k.grid.Box(sym))
}

//twlint:steady-state
func (k *vectorKernel) Gap(x int, sym suffixtree.Symbol) float64 {
	box := k.grid.Box(sym)
	g := 0.0
	for d := range k.envs {
		elo, ehi := k.envs[d].At(x)
		g += dtw.GapInterval(box.Lo[d], box.Hi[d], elo, ehi)
	}
	return g
}

//twlint:steady-state
func (k *vectorKernel) AddRow(sym suffixtree.Symbol) (dist, minDist float64) {
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
func (k *vectorKernel) Truncate(depth int) { k.table.Truncate(depth) }

func (k *vectorKernel) Fork(depth int) *dtw.Rows  { return k.table.Fork(depth) }
func (k *vectorKernel) CopyFrom(prefix *dtw.Rows) { k.table.CopyFrom(prefix) }

//twlint:steady-state
func (k *vectorKernel) Verify(seq, start, end int, hit func(end int, dist float64)) {
	k.verify.Scan(k.data.Points(seq), start, end, hit)
}

func (k *vectorKernel) Cells() (filter, post uint64) { return k.table.Cells(), k.verify.Cells() }
