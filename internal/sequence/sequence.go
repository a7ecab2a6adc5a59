// Package sequence defines the data model shared by every layer of the
// library: sequences of d-dimensional points (d = 1: continuous values),
// references to subsequences and the answers that locate them, and an
// in-memory dataset that owns a collection of sequences of one dimension.
//
// The index structures (internal/suffixtree, internal/disktree) and the
// search algorithms (internal/core) never copy element values around; they
// pass Ref values that point back into a Dataset.
package sequence

import (
	"fmt"
	"math"
)

// Sequence is a named series of points, e.g. the daily closing prices of
// one stock (one value per point) or a trajectory (two). Values must not be
// mutated after the sequence has been added to a Dataset that has been
// indexed.
type Sequence struct {
	// ID is an application-chosen identifier, unique within a Dataset.
	ID string
	// Values holds the points in time order, point-major: point i of a
	// d-dimensional sequence is Values[i*d : (i+1)*d].
	Values []float64
}

// Ref identifies the subsequence of points [Start, End) (half-open
// interval) of the sequence with index Seq inside some Dataset. A Ref with
// Start==0 and End==Len is the whole sequence; a Ref with End==Len is a
// suffix.
type Ref struct {
	Seq   int // index of the sequence within its Dataset
	Start int // first element, inclusive
	End   int // one past the last element
}

// Len returns the number of elements the reference spans.
func (r Ref) Len() int { return r.End - r.Start }

// String renders the reference in the paper's S_i[p:q] notation
// (1-based, inclusive).
func (r Ref) String() string {
	return fmt.Sprintf("S_%d[%d:%d]", r.Seq, r.Start+1, r.End)
}

// Match is one answer subsequence: its location and its exact time warping
// distance from the query.
type Match struct {
	Ref      Ref
	Distance float64
}

// Dataset owns an ordered collection of sequences of one dimension and
// answers id and subsequence lookups. The zero value is an empty dataset of
// dimension 1.
type Dataset struct {
	// dim is the point dimension; 0 in the zero value means 1.
	dim  int
	seqs []Sequence
	byID map[string]int
}

// NewDataset returns an empty dataset of dimension 1.
func NewDataset() *Dataset { return NewDatasetDim(1) }

// NewDatasetDim returns an empty dataset of dim-dimensional points; dim
// must be at least 1.
func NewDatasetDim(dim int) *Dataset {
	return &Dataset{dim: dim, byID: make(map[string]int)}
}

// Dim returns the point dimension.
func (d *Dataset) Dim() int { return max(d.dim, 1) }

// Add appends a sequence and returns its index. It returns an error when
// the id is empty or duplicated, the sequence has no points (the
// suffix-tree layers require non-empty sequences) or a number of values
// that is not a whole number of points, or any value is NaN or infinite
// (distances would silently stop being comparable).
func (d *Dataset) Add(s Sequence) (int, error) {
	if s.ID == "" {
		return 0, fmt.Errorf("sequence: empty id")
	}
	if len(s.ID) > math.MaxUint16 {
		return 0, fmt.Errorf("sequence: id of %d bytes, longer than the %d a dataset file holds", len(s.ID), math.MaxUint16)
	}
	if len(s.Values) == 0 {
		return 0, fmt.Errorf("sequence: %q has no elements", s.ID)
	}
	if dim := d.Dim(); len(s.Values)%dim != 0 {
		return 0, fmt.Errorf("sequence: %q has %d values, not a whole number of %d-dimensional points", s.ID, len(s.Values), dim)
	}
	for i, v := range s.Values {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return 0, fmt.Errorf("sequence: %q element %d is %v", s.ID, i, v)
		}
	}
	if d.byID == nil {
		d.byID = make(map[string]int)
	}
	if _, dup := d.byID[s.ID]; dup {
		return 0, fmt.Errorf("sequence: duplicate id %q", s.ID)
	}
	idx := len(d.seqs)
	d.seqs = append(d.seqs, s)
	d.byID[s.ID] = idx
	return idx, nil
}

// MustAdd is Add for test and generator code where ids are known-valid.
// It panics on error.
func (d *Dataset) MustAdd(s Sequence) int {
	idx, err := d.Add(s)
	if err != nil {
		//lint:ignore panicpath Must-prefix constructor contract (regexp.MustCompile idiom): generators pass ids and values that are valid by construction; Add is the error-returning path
		panic(err)
	}
	return idx
}

// Len returns the number of sequences.
func (d *Dataset) Len() int { return len(d.seqs) }

// Seq returns the sequence at index i.
func (d *Dataset) Seq(i int) Sequence { return d.seqs[i] }

// Values returns the values of sequence i, point-major. The caller must
// not mutate them.
func (d *Dataset) Values(i int) []float64 { return d.seqs[i].Values }

// ByID returns the index of the sequence with the given id, or -1.
func (d *Dataset) ByID(id string) int {
	if idx, ok := d.byID[id]; ok {
		return idx
	}
	return -1
}

// Slice resolves a Ref to its points' values. The returned slice aliases
// the dataset's storage and must not be mutated.
func (d *Dataset) Slice(r Ref) []float64 {
	dim := d.Dim()
	return d.seqs[r.Seq].Values[r.Start*dim : r.End*dim]
}

// TotalElements returns the sum of all sequence lengths in points — the
// paper's M·L̄.
func (d *Dataset) TotalElements() int {
	total := 0
	for _, s := range d.seqs {
		total += len(s.Values)
	}
	return total / d.Dim()
}

// AvgLen returns the average sequence length L̄, or 0 for an empty dataset.
func (d *Dataset) AvgLen() float64 {
	if len(d.seqs) == 0 {
		return 0
	}
	return float64(d.TotalElements()) / float64(len(d.seqs))
}

// Bounds returns, per dimension, the smallest and largest value in the
// dataset; for dimension 1 these are the MIN and MAX inputs of the
// equal-length categorization. They are zero for an empty dataset.
func (d *Dataset) Bounds() (lo, hi []float64) {
	dim := d.Dim()
	lo, hi = make([]float64, dim), make([]float64, dim)
	first := true
	for _, s := range d.seqs {
		v := s.Values
		if first {
			copy(lo, v)
			copy(hi, v)
			first = false
		}
		for p := 0; p+dim <= len(v); p += dim {
			for k, x := range v[p : p+dim] {
				lo[k], hi[k] = min(lo[k], x), max(hi[k], x)
			}
		}
	}
	return lo, hi
}

// AllValues returns every value of every sequence in one slice, in dataset
// order. Categorizers use it to fit boundaries.
func (d *Dataset) AllValues() []float64 {
	out := make([]float64, 0, d.TotalElements()*d.Dim())
	for _, s := range d.seqs {
		out = append(out, s.Values...)
	}
	return out
}

// Stats summarizes a dataset for reports and EXPERIMENTS.md tables.
type Stats struct {
	Sequences     int
	TotalElements int
	AvgLen        float64
	MinLen        int
	MaxLen        int
	MinValue      float64
	MaxValue      float64
	MeanValue     float64
	StdDev        float64
}

// ComputeStats scans the dataset once and returns its summary statistics:
// lengths count points, and the value statistics run over every
// coordinate.
func (d *Dataset) ComputeStats() Stats {
	st := Stats{Sequences: len(d.seqs)}
	if len(d.seqs) == 0 {
		return st
	}
	st.MinLen = math.MaxInt
	sum, sumSq := 0.0, 0.0
	first := true
	for _, s := range d.seqs {
		n := len(s.Values) / d.Dim()
		st.TotalElements += n
		if n < st.MinLen {
			st.MinLen = n
		}
		if n > st.MaxLen {
			st.MaxLen = n
		}
		for _, v := range s.Values {
			if first {
				st.MinValue, st.MaxValue = v, v
				first = false
			} else {
				if v < st.MinValue {
					st.MinValue = v
				}
				if v > st.MaxValue {
					st.MaxValue = v
				}
			}
			sum += v
			sumSq += v * v
		}
	}
	st.AvgLen = float64(st.TotalElements) / float64(st.Sequences)
	n := float64(st.TotalElements * d.Dim())
	st.MeanValue = sum / n
	variance := sumSq/n - st.MeanValue*st.MeanValue
	if variance > 0 {
		st.StdDev = math.Sqrt(variance)
	}
	return st
}
