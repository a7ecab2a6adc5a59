package multivar

import (
	"context"

	"twsearch/internal/sequence"
)

// Scan is the multivariate sequential-scanning baseline and ground truth:
// for every suffix of every sequence of data it grows a cumulative table
// row by row, reporting each prefix within eps with its exact distance and
// abandoning the suffix by Theorem 1. q is a non-empty point-major query of
// data's dimension; window < 0 disables the warping-window constraint. The
// answers come in (sequence, start, end) order, with the table cells
// computed. ctx is polled every 64 suffix starts; an abort returns
// ctx.Err().
func Scan(ctx context.Context, data *sequence.Dataset, q []float64, eps float64, window int) ([]sequence.Match, uint64, error) {
	dim := data.Dim()
	table := NewTableWindow(Rows(nil, q, dim), window)
	var matches []sequence.Match
	starts := 0
	for seq := 0; seq < data.Len(); seq++ {
		vals := data.Values(seq)
		for p := 0; p < len(vals)/dim; p++ {
			if starts&63 == 0 {
				if err := ctx.Err(); err != nil {
					return nil, table.Cells(), err
				}
			}
			starts++
			table.Truncate(0)
			for r := p; r < len(vals)/dim; r++ {
				dist, minDist := table.AddRowPoint(vals[r*dim : (r+1)*dim])
				if dist <= eps {
					matches = append(matches, sequence.Match{Ref: sequence.Ref{Seq: seq, Start: p, End: r + 1}, Distance: dist})
				}
				if minDist > eps {
					break
				}
			}
		}
	}
	return matches, table.Cells(), nil
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

// SeqScan is Scan over points.
//
//twlint:ctx-root the benchmark's ground-truth probe calls this form; cancellable scans use Scan
func SeqScan(data *Dataset, q [][]float64, eps float64, window int) ([]sequence.Match, uint64, error) {
	return Scan(context.Background(), data.Dataset, Flatten(q), eps, window)
}
