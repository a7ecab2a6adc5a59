package core

import (
	"context"
	"time"

	"twsearch/internal/sequence"
)

// SeqScan is the sequential-scanning baseline strengthened with the
// Theorem-1 early abandon: for every suffix of every sequence it grows a
// cumulative distance table row by row, reporting each prefix within eps
// and abandoning the suffix as soon as every column of a row exceeds eps.
// Its exact answers, in (sequence, start, end) order, double as the ground
// truth the index searches are verified against. q is a point-major query
// of the data's dimension, and one loop scans every dimension. window < 0
// disables the warping-window constraint.
//
//twlint:ctx-root the benchmark's probes and the ground-truth tests call this form; cancellable scans use SeqScanVisit
func SeqScan(data *sequence.Dataset, q []float64, eps float64, window int) ([]Match, SearchStats, error) {
	var matches []Match
	stats, err := SeqScanVisit(context.Background(), data, q, eps, window, func(m Match) bool {
		matches = append(matches, m)
		return true
	})
	if err != nil {
		return nil, stats, err
	}
	return matches, stats, nil
}

// SeqScanVisit is SeqScan streaming: it hands each answer to fn as it is
// found, which is in (sequence, start, end) order — the sequences in turn,
// the starts of each ascending, the ends of each start growing with its
// table — and stops when fn returns false. ctx is polled every cancelMask+1
// suffix starts, so an abort costs at most 64 cumulative-table scans,
// delivers no further answer and returns ctx.Err().
func SeqScanVisit(ctx context.Context, data *sequence.Dataset, q []float64, eps float64, window int, fn func(Match) bool) (SearchStats, error) {
	if err := CheckQuery(q, data.Dim()); err != nil {
		return SearchStats{}, err
	}
	if err := CheckThreshold(eps); err != nil {
		return SearchStats{}, err
	}
	started := time.Now()
	dim := data.Dim()
	table := acquireScanTable(q, dim, window)
	defer releaseScanTable(table)
	var stats SearchStats
	finish := func(err error) (SearchStats, error) {
		stats.FilterCells = table.Cells()
		stats.Elapsed = time.Since(started)
		return stats, err
	}
	starts := 0
	for seq := 0; seq < data.Len(); seq++ {
		vals := data.Values(seq)
		n := len(vals) / dim
		for p := 0; p < n; p++ {
			if starts&cancelMask == 0 {
				if err := ctx.Err(); err != nil {
					return finish(err)
				}
			}
			starts++
			table.Truncate(0)
			for r := p; r < n; r++ {
				dist, minDist := table.AddRowPoint(vals[r*dim : (r+1)*dim])
				if dist <= eps {
					stats.Answers++
					if !fn(Match{Ref: sequence.Ref{Seq: seq, Start: p, End: r + 1}, Distance: dist}) {
						return finish(nil)
					}
				}
				if minDist > eps {
					break
				}
			}
		}
	}
	return finish(nil)
}
