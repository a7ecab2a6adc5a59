// Package dtw implements the time warping distance of the paper
// (Definition 1/2): dynamic-time-warping with a city-block base distance,
// the cumulative distance table that can grow one row at a time, the
// Theorem-1 early-abandon test, lower-bound base distances against category
// intervals (Definition 3), and the optional Sakoe–Chiba warping-window
// constraint from the paper's conclusion.
package dtw

import "math"

// Inf is the positive infinity used for unreachable table cells.
var Inf = math.Inf(1)

// Base is the paper's D_base: the city-block distance between two elements.
// IEEE subtraction is sign-symmetric, so |a-b| has the bits of the larger
// minus the smaller, and never reads as -0.
func Base(a, b float64) float64 {
	return math.Abs(a - b)
}

// BasePoint is D_base between two points of one dimension: the city-block
// distance summed over the dimensions, from 0. A value is a point of
// dimension 1, whose BasePoint is 0 + Base, which has Base's bits.
func BasePoint(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		s += Base(a[i], b[i])
	}
	return s
}

// Box is a per-dimension interval: the observed bounding box of one
// category or grid cell, the analogue of [B.lb, B.ub] for a point.
type Box struct {
	Lo, Hi []float64
}

// BaseBox is D_base-lb for a point: the smallest BasePoint between p and any
// point inside the box, summed over the dimensions like BasePoint.
func BaseBox(p []float64, b Box) float64 {
	s := 0.0
	for i := range p {
		s += BaseInterval(p[i], b.Lo[i], b.Hi[i])
	}
	return s
}

// points appends to dst one row per point of vals, a point-major sequence
// of dim-dimensional points — views into vals, not copies — and returns the
// extended slice: the form the point loops of Table and Verifier read.
func points(dst [][]float64, vals []float64, dim int) [][]float64 {
	for i := 0; i+dim <= len(vals); i += dim {
		dst = append(dst, vals[i:i+dim:i+dim])
	}
	return dst
}

// BaseInterval is the paper's D_base-lb (Definition 3): the smallest possible
// city-block distance between the value a and any value inside [lo, hi].
// It is zero when a lies inside the interval. Without a branch: at most one
// of a-hi and lo-a is positive, each is clamped at +0, and adding +0 to the
// other leaves its bits — a-hi, lo-a or +0, as the three-way test would give.
func BaseInterval(a, lo, hi float64) float64 {
	return clampZero(a-hi) + clampZero(lo-a)
}

// clampZero returns x when its sign bit is clear and +0 otherwise, by masking
// the bits with the sign bit spread across the word.
func clampZero(x float64) float64 {
	b := math.Float64bits(x)
	return math.Float64frombits(b &^ uint64(int64(b)>>63))
}

// Distance returns the time warping distance D_tw(a, b) of Definition 1,
// computed with the O(|a|·|b|) dynamic program of Definition 2.
// It panics if either sequence is empty: D_tw is defined on non-null
// sequences only.
func Distance(a, b []float64) float64 {
	return distance(a, b, -1)
}

// DistanceWindow returns D_tw(a, b) restricted to a Sakoe–Chiba band of
// half-width w: element a[x] may only be matched to b[y] when |x-y| <= w.
// A window of 0 degenerates to the city-block distance of aligned prefixes;
// w >= max(|a|,|b|) is equivalent to the unconstrained distance. The result
// is Inf when the band is too narrow to connect the two corners, which can
// happen only when |len(a)-len(b)| > w.
func DistanceWindow(a, b []float64, w int) float64 {
	if w < 0 {
		//lint:ignore panicpath precondition assertion: a negative band is a construction-time bug, never data-dependent
		panic("dtw: negative warping window")
	}
	return distance(a, b, w)
}

// distance computes DTW with two rolling rows. w < 0 means unconstrained.
func distance(a, b []float64, w int) float64 {
	if len(a) == 0 || len(b) == 0 {
		//lint:ignore panicpath precondition assertion: the engine validates queries before the kernel; a silent zero distance would break exactness
		panic("dtw: distance of empty sequence")
	}
	// Rows indexed by a, columns by b.
	prev := make([]float64, len(b))
	curr := make([]float64, len(b))
	for x := 0; x < len(a); x++ {
		for y := 0; y < len(b); y++ {
			if w >= 0 && abs(x-y) > w {
				curr[y] = Inf
				continue
			}
			base := Base(a[x], b[y])
			switch {
			case x == 0 && y == 0:
				curr[y] = base
			case x == 0:
				curr[y] = base + curr[y-1]
			case y == 0:
				curr[y] = base + prev[y]
			default:
				curr[y] = base + Min3(curr[y-1], prev[y], prev[y-1])
			}
		}
		prev, curr = curr, prev
	}
	return prev[len(b)-1]
}

// DistancePoints is Distance over sequences of points with the BasePoint
// base distance: the reference the point rows are held to.
func DistancePoints(a, b [][]float64) float64 {
	if len(a) == 0 || len(b) == 0 {
		//lint:ignore panicpath precondition assertion: the engine validates queries before the kernel; a silent zero distance would break exactness
		panic("dtw: distance of empty sequence")
	}
	prev := make([]float64, len(b))
	curr := make([]float64, len(b))
	for x := 0; x < len(a); x++ {
		for y := 0; y < len(b); y++ {
			base := BasePoint(a[x], b[y])
			switch {
			case x == 0 && y == 0:
				curr[y] = base
			case x == 0:
				curr[y] = base + curr[y-1]
			case y == 0:
				curr[y] = base + prev[y]
			default:
				curr[y] = base + Min3(curr[y-1], prev[y], prev[y-1])
			}
		}
		prev, curr = curr, prev
	}
	return prev[len(b)-1]
}

// Interval is a closed range of element values. Category symbols map to
// intervals; a sequence of intervals stands for every numeric sequence whose
// elements fall inside them element-wise.
type Interval struct {
	Lo, Hi float64
}

// DistanceIntervals returns the lower-bound time warping distance
// D_tw-lb(a, ivs) of Definition 3: the same recurrence as D_tw but with the
// interval base distance. By Theorem 2 the result never exceeds D_tw(a, b)
// for any b whose elements lie inside ivs.
func DistanceIntervals(a []float64, ivs []Interval) float64 {
	if len(a) == 0 || len(ivs) == 0 {
		//lint:ignore panicpath precondition assertion: an empty query or edge label cannot reach the lower-bound kernel; D_tw-lb of nothing is undefined
		panic("dtw: distance of empty sequence")
	}
	// Rows indexed by ivs, columns by a — matches the orientation the tree
	// search uses (query along columns).
	prev := make([]float64, len(a))
	curr := make([]float64, len(a))
	for x := 0; x < len(ivs); x++ {
		iv := ivs[x]
		for y := 0; y < len(a); y++ {
			base := BaseInterval(a[y], iv.Lo, iv.Hi)
			switch {
			case x == 0 && y == 0:
				curr[y] = base
			case x == 0:
				curr[y] = base + curr[y-1]
			case y == 0:
				curr[y] = base + prev[y]
			default:
				curr[y] = base + Min3(curr[y-1], prev[y], prev[y-1])
			}
		}
		prev, curr = curr, prev
	}
	return prev[len(a)-1]
}

// MinMaxAnswerLength applies the conclusion-section observation: with a
// warping window of half-width w, any subsequence within the window-
// constrained distance of a query of length qLen has a length in
// [qLen-w, qLen+w]. It returns that closed range, clamping the minimum at 1.
func MinMaxAnswerLength(qLen, w int) (minLen, maxLen int) {
	minLen = qLen - w
	if minLen < 1 {
		minLen = 1
	}
	return minLen, qLen + w
}

// Min3 returns the smallest of three cells — the recurrence's choice of
// predecessor, shared by every row kernel. It takes
// the minimum of the IEEE bit patterns, which order non-negative floats,
// +Inf included, exactly as their values do; every cell is a sum of base
// distances (never -0) or +Inf, and the search entry points refuse the NaN
// inputs that could make one NaN (THEORY.md §10). Row kernels pass the cell
// to the left last: the minimum of the other two does not wait for it.
func Min3(a, b, c float64) float64 {
	return math.Float64frombits(min(math.Float64bits(a), math.Float64bits(b), math.Float64bits(c)))
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
