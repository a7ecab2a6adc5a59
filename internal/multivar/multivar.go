// Package multivar is the point-slice form of a dataset of dimension d > 1,
// the paper's conclusion-section extension to multivariate sequences, in
// which the benchmark under bench/ builds its trajectory workload and its
// ground truth. Nothing else of the extension is here: a value is a point
// of dimension 1, so sequence.Dataset holds sequences of every dimension,
// categorize fits a grid over points, dtw's tables and verifier take the
// dimension, and core.Index and core.SeqScan search them.
package multivar

import (
	"twsearch/internal/core"
	"twsearch/internal/sequence"
)

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

// Dataset, Sequence, NewDataset, Add and SeqScan are a vector dataset in
// the form the benchmark under bench/ builds its ground truth in: points as
// slices.
type (
	Dataset  struct{ *sequence.Dataset }
	Sequence struct {
		ID     string
		Points [][]float64
	}
)

// NewDataset returns an empty dataset of dim-dimensional points.
func NewDataset(dim int) *Dataset { return &Dataset{sequence.NewDatasetDim(dim)} }

// Add appends a sequence given as points.
func (d *Dataset) Add(s Sequence) (int, error) {
	return d.Dataset.Add(sequence.Sequence{ID: s.ID, Values: Flatten(s.Points)})
}

// SeqScan is core.SeqScan over points, returning the table cells it
// computed.
func SeqScan(data *Dataset, q [][]float64, eps float64, window int) ([]sequence.Match, uint64, error) {
	ms, stats, err := core.SeqScan(data.Dataset, Flatten(q), eps, window)
	return ms, stats.FilterCells, err
}
