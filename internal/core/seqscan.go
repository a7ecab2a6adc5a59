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
// Its exact answers double as the ground truth the index searches are
// verified against. window < 0 disables the warping-window constraint.
//
//twlint:ctx-root the benchmark's probes and the ground-truth tests call this form; cancellable scans use SeqScanCtx
func SeqScan(data *sequence.Dataset, q []float64, eps float64, window int) ([]Match, SearchStats, error) {
	return SeqScanCtx(context.Background(), data, q, eps, window)
}

// SeqScanCtx is SeqScan with cancellation: ctx is polled every cancelMask+1
// suffix starts, so an abort costs at most 64 cumulative-table scans and
// returns ctx.Err().
func SeqScanCtx(ctx context.Context, data *sequence.Dataset, q []float64, eps float64, window int) ([]Match, SearchStats, error) {
	if err := CheckQuery(q); err != nil {
		return nil, SearchStats{}, err
	}
	if err := CheckThreshold(eps); err != nil {
		return nil, SearchStats{}, err
	}
	started := time.Now()
	table := acquireScanTable(q, window)
	defer releaseScanTable(table)
	var matches []Match
	var stats SearchStats
	starts := 0
	for seq := 0; seq < data.Len(); seq++ {
		vals := data.Values(seq)
		for p := 0; p < len(vals); p++ {
			if starts&cancelMask == 0 {
				if err := ctx.Err(); err != nil {
					stats.Elapsed = time.Since(started)
					return nil, stats, err
				}
			}
			starts++
			table.Truncate(0)
			for r, v := range vals[p:] {
				dist, minDist := table.AddRowValue(v)
				if dist <= eps {
					matches = append(matches, Match{
						Ref:      sequence.Ref{Seq: seq, Start: p, End: p + r + 1},
						Distance: dist,
					})
				}
				if minDist > eps {
					break
				}
			}
		}
	}
	stats.FilterCells = table.Cells()
	stats.Answers = uint64(len(matches))
	stats.Elapsed = time.Since(started)
	sortMatches(matches)
	return matches, stats, nil
}
