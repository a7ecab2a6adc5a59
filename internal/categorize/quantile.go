package categorize

import (
	"math"
	"math/bits"
	"sort"
)

const (
	// selectMinValues is the input size below which a sort is as cheap as
	// setting the cells up.
	selectMinValues = 2048
	// selectCellsPerRank sizes the cell table: on evenly spread values a
	// wanted cell then holds 1/selectCellsPerRank of the values between two
	// ranks, and the table of a few hundred ranks stays inside the cache.
	selectCellsPerRank = 64
	selectMaxCells     = 1 << 16
)

// orderStatistics returns what values in ascending order would hold at
// position 0, at the last position, and at each of ranks (ascending,
// distinct, in range). It puts them in order only where selectStatistics
// declines to find the answer without. values is not modified.
func orderStatistics(values []float64, ranks []int) (lo, hi float64, at []float64) {
	if lo, hi, at, ok := selectStatistics(values, ranks); ok {
		return lo, hi, at
	}
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	at = make([]float64, len(ranks))
	for i, r := range ranks {
		at[i] = sorted[r]
	}
	return sorted[0], sorted[len(sorted)-1], at
}

// selectStatistics is orderStatistics without a sort: the values are dealt
// into equal-width cells, cell order being value order, and only the cells a
// wanted position falls in are gathered and partially ordered. An order
// statistic is one value whichever way it is found, so a scheme fitted from
// these is the scheme a full sort gives. It reports false — leaving the
// answer to the sort — for what a sort decides by position, not by value: a
// NaN anywhere, and a statistic that is zero when the values hold a -0, which
// ties with +0 for the place. It also leaves to the sort inputs too small to
// repay the cells, and ranges the cell width cannot divide (zero, or
// overflowing, as with an infinity).
func selectStatistics(values []float64, ranks []int) (lo, hi float64, at []float64, ok bool) {
	lo, hi, negZero, nan := valueRange(values)
	cells := min(selectMaxCells, max(1, selectCellsPerRank*len(ranks)), len(values))
	scale := float64(cells) / (hi - lo)
	if len(values) < selectMinValues || nan || !(scale > 0) || math.IsInf(scale, 0) {
		return 0, 0, nil, false
	}
	// cell never decreases as v grows, for the reasons Scheme.cell gives.
	cell := func(v float64) int { return min(int((v-lo)*scale), cells-1) }

	// slot[k] counts cell k, then becomes where the cell's next value goes
	// in gathered, or -1 for a cell no rank falls in.
	slot := make([]int, cells)
	for _, v := range values {
		slot[cell(v)]++
	}
	type span struct{ from, to, first, rank0, rank1 int } // gathered[from:to] holds positions first.. of the order, ranks[rank0:rank1] among them
	var wanted []span
	below, next, size := 0, 0, 0
	for k, n := range slot {
		slot[k] = -1
		if rank0 := next; next < len(ranks) && ranks[next] < below+n {
			for next < len(ranks) && ranks[next] < below+n {
				next++
			}
			slot[k] = size
			wanted = append(wanted, span{size, size + n, below, rank0, next})
			size += n
		}
		below += n
	}
	gathered := make([]float64, size)
	for _, v := range values {
		if k := cell(v); slot[k] >= 0 {
			gathered[slot[k]] = v
			slot[k]++
		}
	}
	at = make([]float64, len(ranks))
	zero := isZero(lo) || isZero(hi)
	for _, s := range wanted {
		part := gathered[s.from:s.to]
		selectRanks(part, s.first, ranks[s.rank0:s.rank1], 2*bits.Len(uint(len(part))))
		for i := s.rank0; i < s.rank1; i++ {
			at[i] = part[ranks[i]-s.first]
			zero = zero || isZero(at[i])
		}
	}
	return lo, hi, at, !(zero && negZero)
}

// isZero reports whether v is +0 or -0.
func isZero(v float64) bool { return math.Float64bits(v)<<1 == 0 }

// valueRange returns the smallest and largest value, whether a -0 is among
// the values and whether a NaN is. Infinities show in the range.
func valueRange(values []float64) (lo, hi float64, negZero, nan bool) {
	lo, hi = values[0], values[0]
	for _, v := range values {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
		if math.Float64bits(v) == 1<<63 {
			negZero = true
		}
		if math.IsNaN(v) {
			nan = true
		}
	}
	return lo, hi, negZero, nan
}

// selectRanks reorders a — the values at positions first.. of some ascending
// order — until a[r-first] is in its final place for every r in ranks
// (ascending): a quickselect that follows every wanted rank at once,
// partitioning three ways so ties cost nothing and dropping each side no
// rank falls in. depth bounds the partitions that may go badly before the
// rest is sorted outright.
func selectRanks(a []float64, first int, ranks []int, depth int) {
	for len(ranks) > 0 && len(a) > 1 {
		if len(a) <= 12 || depth == 0 {
			sort.Float64s(a)
			return
		}
		depth--
		x, y, z := a[0], a[len(a)/2], a[len(a)-1]
		pivot := max(min(x, y), min(max(x, y), z)) // median of three
		lt, gt := 0, len(a)                        // a[:lt] < pivot, a[lt:i] == pivot, a[gt:] > pivot
		for i := 0; i < gt; {
			switch v := a[i]; {
			case v < pivot:
				a[lt], a[i] = a[i], a[lt]
				lt++
				i++
			case v > pivot:
				gt--
				a[gt], a[i] = a[i], a[gt]
			default:
				i++
			}
		}
		selectRanks(a[:lt], first, ranks[:sort.SearchInts(ranks, first+lt)], depth)
		ranks = ranks[sort.SearchInts(ranks, first+gt):]
		a, first = a[gt:], first+gt
	}
}
