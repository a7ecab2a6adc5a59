// Package categorize converts sequences of continuous values into sequences
// of discrete category symbols (Section 5 of the paper). A small alphabet
// lengthens and multiplies the common prefixes among suffixes, which is what
// makes the categorized suffix tree ST_C compact and fast to search.
//
// Three fitted categorizers are provided — equal-length (EL), maximum-entropy
// (ME), and k-means — plus an identity scheme with one point category per
// distinct value, which turns the categorized machinery back into the exact
// suffix tree ST of Section 4.
//
// Every category records the minimum and maximum element value actually
// observed inside it (the paper's B.lb and B.ub); those bounds feed the
// lower-bound base distance D_base-lb of Definition 3.
package categorize

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"twsearch/internal/dtw"
	"twsearch/internal/sequence"
)

// Symbol is a category index. Symbols are dense, starting at 0. Negative
// values are never produced; the suffix-tree layer reserves them for
// per-sequence terminators.
type Symbol int32

// Category is one bin of a categorization scheme.
type Category struct {
	// Lo and Hi are the assignment boundaries: values v in (Lo, Hi] map to
	// this category; the first category also includes its lower bound.
	Lo, Hi float64
	// ObsLo and ObsHi are the smallest and largest values observed in this
	// category while fitting — the paper's B.lb and B.ub. They are what the
	// lower-bound distance uses, and they are never wider than [Lo, Hi].
	ObsLo, ObsHi float64
	// Count is the number of fitted values that fell in this category.
	Count int
}

// Kind names a categorization method.
type Kind string

// The available categorization methods.
const (
	KindEqualLength Kind = "equal-length"
	KindMaxEntropy  Kind = "max-entropy"
	KindKMeans      Kind = "k-means"
	KindIdentity    Kind = "identity"
)

// Scheme assigns values to categories and reports the observed interval of
// each category. A Scheme is immutable after construction and safe for
// concurrent use.
type Scheme struct {
	kind Kind
	cats []Category
	// uppers[i] is the assignment upper boundary of category i (== cats[i].Hi);
	// kept separately for binary search.
	uppers []float64
	// grid narrows that search: the boundary range is cut into
	// len(grid)-2 equal cells (plus one for everything above) and grid[c]
	// counts the boundaries in the cells before c, so a value in cell c
	// belongs to a category in grid[c]..grid[c+1]. Nil when the boundaries
	// span no range. See cell.
	grid              []int32
	gridLo, gridScale float64
}

// ErrNoValues is returned when a categorizer is fitted on an empty value set.
var ErrNoValues = errors.New("categorize: no values to fit")

// ErrBadCount is returned when the requested category count is < 1.
var ErrBadCount = errors.New("categorize: category count must be >= 1")

// Kind returns the method that produced this scheme.
func (s *Scheme) Kind() Kind { return s.kind }

// Dim returns 1: a scheme categorizes values, the points of a
// one-dimensional sequence.
func (s *Scheme) Dim() int { return 1 }

// NumCategories returns the number of categories.
func (s *Scheme) NumCategories() int { return len(s.cats) }

// Category returns the i-th category.
func (s *Scheme) Category(i int) Category { return s.cats[i] }

// Symbol maps a value to its category symbol. Values below the first
// boundary map to category 0 and values above the last map to the final
// category, so encoding is total.
func (s *Scheme) Symbol(v float64) Symbol {
	// First category whose upper boundary admits v, the last one failing
	// that: sort.SearchFloat64s over uppers, clamped — but every value is
	// categorized on every fit, build and open, and a binary search over a
	// few hundred boundaries mispredicts most of its branches, so the grid
	// first narrows it to the boundaries in v's cell, usually none or one.
	lo, hi := 0, len(s.uppers)-1
	if s.grid != nil {
		c := s.cell(v)
		lo, hi = min(int(s.grid[c]), hi), min(int(s.grid[c+1]), hi)
	}
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s.uppers[mid] >= v {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return Symbol(lo)
}

// gridPerCategory is how many grid cells a scheme gets per category: enough
// that cells of a skewed scheme mostly hold one boundary or none.
const gridPerCategory = 4

// withGrid indexes the boundaries for Symbol. Boundaries read from a damaged
// file may be unordered or not numbers: the grid is then meaningless but
// still non-decreasing, so Symbol stays total.
func (s *Scheme) withGrid() *Scheme {
	if len(s.uppers) < 2 {
		return s
	}
	lo, hi := s.uppers[0], s.uppers[len(s.uppers)-1]
	cells := gridPerCategory * len(s.uppers)
	scale := float64(cells) / (hi - lo)
	if !(scale > 0) || math.IsInf(scale, 0) {
		return s
	}
	s.gridLo, s.gridScale = lo, scale
	s.grid = make([]int32, cells+2)
	for _, u := range s.uppers {
		s.grid[s.cell(u)+1]++
	}
	for c := 1; c < len(s.grid); c++ {
		s.grid[c] += s.grid[c-1]
	}
	return s
}

// cell maps a value to its grid cell, 0..len(grid)-2. It never decreases as
// v grows — subtracting a constant, scaling by a positive one and
// truncating all keep order — which is all Symbol needs: a boundary in an
// earlier cell than v's is below v, one in a later cell above it, whatever
// the rounding did at the cell edges. NaN goes to the last cell with
// everything above the range, and from there to the last category.
func (s *Scheme) cell(v float64) int {
	x := (v - s.gridLo) * s.gridScale
	if top := len(s.grid) - 2; !(x < float64(top)) {
		return top
	}
	if x < 0 {
		return 0
	}
	return int(x)
}

// Interval returns the observed value interval [B.lb, B.ub] of a symbol,
// ready for dtw.BaseInterval.
func (s *Scheme) Interval(sym Symbol) dtw.Interval {
	c := s.cats[sym]
	return dtw.Interval{Lo: c.ObsLo, Hi: c.ObsHi}
}

// Encode converts a numeric sequence to its categorized form CS.
func (s *Scheme) Encode(vals []float64) []Symbol {
	out := make([]Symbol, len(vals))
	for i, v := range vals {
		out[i] = s.Symbol(v)
	}
	return out
}

// Entropy returns H(C) = -Σ P(C_i) log2 P(C_i) over the fitted counts.
// Categories with zero observations contribute nothing.
func (s *Scheme) Entropy() float64 {
	total := 0
	for _, c := range s.cats {
		total += c.Count
	}
	if total == 0 {
		return 0
	}
	h := 0.0
	for _, c := range s.cats {
		if c.Count == 0 {
			continue
		}
		p := float64(c.Count) / float64(total)
		h -= p * math.Log2(p)
	}
	return h
}

// newScheme returns the scheme of the given ascending boundaries with
// nothing observed yet: a fit fills the counts and observed bounds from
// the fitted values (observe, or count per value and settle). uppers must
// be ascending; uppers[len-1] must admit the largest value.
func newScheme(kind Kind, lowers, uppers []float64) *Scheme {
	cats := make([]Category, len(uppers))
	for i := range cats {
		cats[i] = Category{Lo: lowers[i], Hi: uppers[i], ObsLo: math.Inf(1), ObsHi: math.Inf(-1)}
	}
	return (&Scheme{kind: kind, cats: cats, uppers: uppers}).withGrid()
}

// observe counts every value in its category and settles the scheme.
func (s *Scheme) observe(values []float64) *Scheme {
	for _, v := range values {
		s.count(v, s.Symbol(v))
	}
	return s.settle()
}

// count records the fitted value v, of category sym, in that category's
// count and observed bounds.
func (s *Scheme) count(v float64, sym Symbol) {
	c := &s.cats[sym]
	c.Count++
	if v < c.ObsLo {
		c.ObsLo = v
	}
	if v > c.ObsHi {
		c.ObsHi = v
	}
}

// settle ends a fit's counting: empty categories get their boundary range
// as the observed interval so Interval stays well-defined (they can still
// be produced by Symbol for out-of-sample values).
func (s *Scheme) settle() *Scheme {
	for i := range s.cats {
		if s.cats[i].Count == 0 {
			s.cats[i].ObsLo, s.cats[i].ObsHi = s.cats[i].Lo, s.cats[i].Hi
		}
	}
	return s
}

// equalLength places the boundaries of the paper's equal-length (EL)
// categorization: c bins of identical width (MAX-MIN)/c over the fitted
// values.
func equalLength(values []float64, c int) (*Scheme, error) {
	if len(values) == 0 {
		return nil, ErrNoValues
	}
	if c < 1 {
		return nil, ErrBadCount
	}
	min, max := minMax(values)
	// Exact equality detects fully degenerate data; any nonzero spread is a
	// valid bin width.
	if min == max {
		// Degenerate data: one real bin is enough regardless of c.
		return newScheme(KindEqualLength, []float64{min}, []float64{max}), nil
	}
	width := (max - min) / float64(c)
	lowers := make([]float64, c)
	uppers := make([]float64, c)
	for i := 0; i < c; i++ {
		lowers[i] = min + float64(i)*width
		uppers[i] = min + float64(i+1)*width
	}
	uppers[c-1] = max // avoid the largest value falling off the end
	return newScheme(KindEqualLength, lowers, uppers), nil
}

// maxEntropy places the boundaries of the paper's maximum-entropy (ME)
// categorization: at quantiles, so every category holds (as nearly as
// possible, given ties) the same number of fitted values, which maximizes
// H(C). values is not modified.
func maxEntropy(values []float64, c int) (*Scheme, error) {
	if len(values) == 0 {
		return nil, ErrNoValues
	}
	if c < 1 {
		return nil, ErrBadCount
	}
	// Boundary i sits at the ((i+1)/c)-quantile: position (i+1)*n/c of the
	// values in ascending order. With more categories than values several
	// boundaries share a position.
	ranks := make([]int, 0, min(c-1, len(values)))
	for i := 0; i < c-1; i++ {
		if r := (i + 1) * len(values) / c; len(ranks) == 0 || r > ranks[len(ranks)-1] {
			ranks = append(ranks, r)
		}
	}
	min, max, quantiles := orderStatistics(values, ranks)
	// Exact equality detects fully degenerate data; quantile boundaries are
	// valid for any nonzero spread.
	if min == max {
		return newScheme(KindMaxEntropy, []float64{min}, []float64{max}), nil
	}
	// Duplicate boundaries (heavy ties) are collapsed, so the scheme may end
	// up with fewer than c categories rather than empty ones.
	var uppers []float64
	for _, q := range quantiles {
		if len(uppers) == 0 || q > uppers[len(uppers)-1] {
			uppers = append(uppers, q)
		}
	}
	if len(uppers) == 0 || max > uppers[len(uppers)-1] {
		uppers = append(uppers, max)
	}
	lowers := make([]float64, len(uppers))
	lowers[0] = min
	for i := 1; i < len(uppers); i++ {
		lowers[i] = uppers[i-1]
	}
	return newScheme(KindMaxEntropy, lowers, uppers), nil
}

// kMeans places the boundaries of a 1-D k-means categorization (mentioned
// by the paper as an alternative method). Centroids are initialized at
// quantiles and refined with Lloyd iterations; category boundaries are the
// midpoints between neighboring centroids.
func kMeans(values []float64, c, iters int) (*Scheme, error) {
	if len(values) == 0 {
		return nil, ErrNoValues
	}
	if c < 1 {
		return nil, ErrBadCount
	}
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	min, max := sorted[0], sorted[len(sorted)-1]
	// Exact equality detects fully degenerate data; clustering is meaningful
	// for any nonzero spread.
	if min == max || c == 1 {
		return newScheme(KindKMeans, []float64{min}, []float64{max}), nil
	}
	// Quantile initialization keeps centroids distinct and deterministic.
	centroids := make([]float64, 0, c)
	for i := 0; i < c; i++ {
		q := sorted[i*len(sorted)/c+len(sorted)/(2*c)]
		if len(centroids) == 0 || q > centroids[len(centroids)-1] {
			centroids = append(centroids, q)
		}
	}
	for iter := 0; iter < iters; iter++ {
		sums := make([]float64, len(centroids))
		counts := make([]int, len(centroids))
		// Values are sorted, centroids ascending: sweep with a moving index.
		j := 0
		for _, v := range sorted {
			for j+1 < len(centroids) && math.Abs(centroids[j+1]-v) <= math.Abs(centroids[j]-v) {
				j++
			}
			sums[j] += v
			counts[j]++
		}
		moved := false
		next := centroids[:0:0]
		for i := range centroids {
			if counts[i] == 0 {
				continue // drop empty clusters
			}
			m := sums[i] / float64(counts[i])
			if len(next) > 0 && m <= next[len(next)-1] {
				continue // keep centroids strictly ascending
			}
			// Exact fixpoint test: iteration stops when centroids stop
			// changing at all, and the loop is bounded by iters regardless.
			if m != centroids[i] {
				moved = true
			}
			next = append(next, m)
		}
		if len(next) != len(centroids) {
			moved = true
		}
		centroids = next
		if !moved {
			break
		}
	}
	uppers := make([]float64, len(centroids))
	lowers := make([]float64, len(centroids))
	lowers[0] = min
	for i := 0; i < len(centroids)-1; i++ {
		uppers[i] = (centroids[i] + centroids[i+1]) / 2
		lowers[i+1] = uppers[i]
	}
	uppers[len(centroids)-1] = max
	return newScheme(KindKMeans, lowers, uppers), nil
}

// identity places the boundaries of the scheme with one point category per
// distinct fitted value. Encoding with it loses no information: the
// observed interval of every symbol is a single point, D_base-lb
// degenerates to the exact D_base, and the categorized suffix tree becomes
// the exact tree ST.
func identity(values []float64) (*Scheme, error) {
	if len(values) == 0 {
		return nil, ErrNoValues
	}
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	var uppers []float64
	for _, v := range sorted {
		if len(uppers) == 0 || v > uppers[len(uppers)-1] {
			uppers = append(uppers, v)
		}
	}
	lowers := append([]float64(nil), uppers...)
	return newScheme(KindIdentity, lowers, uppers), nil
}

// Fit dispatches on kind. The iters parameter is used by k-means only; the
// count parameter is ignored by the identity scheme.
func Fit(kind Kind, values []float64, count, iters int) (*Scheme, error) {
	s, err := fitBounds(kind, values, count, iters)
	if err != nil {
		return nil, err
	}
	return s.observe(values), nil
}

// fitBounds is Fit's boundaries, with nothing observed yet.
func fitBounds(kind Kind, values []float64, count, iters int) (*Scheme, error) {
	switch kind {
	case KindEqualLength:
		return equalLength(values, count)
	case KindMaxEntropy:
		return maxEntropy(values, count)
	case KindKMeans:
		return kMeans(values, count, iters)
	case KindIdentity:
		return identity(values)
	default:
		return nil, fmt.Errorf("categorize: unknown kind %q", kind)
	}
}

// FitTexts fits a scheme of the given kind, as Fit does, on every value of
// data, a dataset of dimension 1, and returns it with the symbol text of
// every sequence, as Encode gives them. Each value is categorized once: the
// boundaries are fitted, the sequences encoded on up to GOMAXPROCS
// goroutines (EncodeAll), and the counts and observed bounds filled from
// the texts in one pass, in dataset order as Fit fills them, so the scheme
// is Fit's to the bit.
func FitTexts(data *sequence.Dataset, kind Kind, count, iters int) (*Scheme, [][]Symbol, error) {
	if data.Dim() != 1 {
		return nil, nil, fmt.Errorf("categorize: a scheme fits values, not points of dimension %d", data.Dim())
	}
	s, err := fitBounds(kind, data.AllValues(), count, iters)
	if err != nil {
		return nil, nil, err
	}
	texts, err := EncodeAll(data, func(vals []float64) ([]Symbol, error) { return s.Encode(vals), nil })
	if err != nil {
		return nil, nil, err
	}
	for i, text := range texts {
		for j, v := range data.Values(i) {
			s.count(v, text[j])
		}
	}
	return s.settle(), texts, nil
}

// EncodeAll encodes every sequence of data with encode, the sequences
// shared out among up to GOMAXPROCS goroutines, and returns the texts in
// sequence order, or the error of the first sequence that failed.
func EncodeAll(data *sequence.Dataset, encode func(vals []float64) ([]Symbol, error)) ([][]Symbol, error) {
	texts := make([][]Symbol, data.Len())
	errs := make([]error, len(texts))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := min(runtime.GOMAXPROCS(0), len(texts)); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < len(texts); i = int(next.Add(1)) - 1 {
				texts[i], errs[i] = encode(data.Values(i))
			}
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("encoding %q: %w", data.Seq(i).ID, err)
		}
	}
	return texts, nil
}

// RunHeads returns the indices p with syms[p] != syms[p-1] (and always 0):
// the start positions of the runs of equal symbols. These are exactly the
// suffixes the sparse suffix tree SST_C stores (Section 6.1).
func RunHeads(syms []Symbol) []int {
	if len(syms) == 0 {
		return nil
	}
	heads := []int{0}
	for p := 1; p < len(syms); p++ {
		if syms[p] != syms[p-1] {
			heads = append(heads, p)
		}
	}
	return heads
}

// RunLengthAt returns the number of consecutive elements equal to syms[p]
// starting at p.
func RunLengthAt(syms []Symbol, p int) int {
	n := 1
	for p+n < len(syms) && syms[p+n] == syms[p] {
		n++
	}
	return n
}

// CostModel weights query-processing cost against index-storage cost when
// choosing the number of categories (Section 5.1's W_t·C_t + W_s·C_s).
type CostModel struct {
	Wt float64 // weight of query-processing cost
	Ws float64 // weight of index-storage cost
}

// Measure reports the two costs of one candidate category count, in
// whatever consistent units the caller uses (e.g. seconds and kilobytes).
type Measure struct {
	Count     int
	TimeCost  float64
	SpaceCost float64
}

// SelectCount returns the candidate whose weighted cost is smallest. It
// returns an error when no measures are given.
func (m CostModel) SelectCount(measures []Measure) (Measure, error) {
	if len(measures) == 0 {
		return Measure{}, errors.New("categorize: no measures")
	}
	best := measures[0]
	bestCost := m.Wt*best.TimeCost + m.Ws*best.SpaceCost
	for _, meas := range measures[1:] {
		cost := m.Wt*meas.TimeCost + m.Ws*meas.SpaceCost
		if cost < bestCost {
			best, bestCost = meas, cost
		}
	}
	return best, nil
}

func minMax(values []float64) (min, max float64) {
	min, max = values[0], values[0]
	for _, v := range values[1:] {
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	return min, max
}
