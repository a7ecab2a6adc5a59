package seqdb

import (
	"fmt"
	"io"

	"twsearch/internal/categorize"
	"twsearch/internal/core"
	"twsearch/internal/dtw"
	"twsearch/internal/sequence"
)

// AlignmentStep records that query element QueryIndex was matched to the
// sequence element at absolute position SeqIndex by the optimal warping
// path.
type AlignmentStep struct {
	QueryIndex int
	SeqIndex   int
}

// Align recomputes a match's optimal warping path against the query —
// Figure 1(b)'s element mapping — so callers can explain which elements
// were stretched or compressed. It returns the exact distance (equal to the
// match's Distance for an unconstrained index) and the path in forward
// order. It is for one-dimensional databases only (ErrDimension).
func (db *DB) Align(m Match, q []float64) (float64, []AlignmentStep, error) {
	if err := db.scalarOnly("align in"); err != nil {
		return 0, nil, err
	}
	vals := db.Values(m.SeqID)
	if vals == nil {
		return 0, nil, fmt.Errorf("seqdb: no sequence %q", m.SeqID)
	}
	if m.Start < 0 || m.End > len(vals) || m.Start >= m.End {
		return 0, nil, fmt.Errorf("seqdb: match range [%d,%d) out of bounds of %q", m.Start, m.End, m.SeqID)
	}
	if len(q) == 0 {
		return 0, nil, fmt.Errorf("seqdb: empty query")
	}
	dist, pairs := dtw.Align(vals[m.Start:m.End], q)
	steps := make([]AlignmentStep, len(pairs))
	for i, p := range pairs {
		steps[i] = AlignmentStep{QueryIndex: p.Y, SeqIndex: m.Start + p.X}
	}
	return dist, steps, nil
}

// CostModel re-exports the Section 5.1 weighting of query time against
// index space used by SelectCategories.
type CostModel = categorize.CostModel

// CategoryMeasure is one trial of SelectCategories: the candidate count,
// its average query seconds, and its index size in KB.
type CategoryMeasure = categorize.Measure

// SelectCategories implements the paper's category-count selection: it
// builds a trial index per candidate count (with the given spec's method
// and sparsity), measures average query time at eps over the sample
// queries and the index size, and returns the count minimizing
// model.Wt*seconds + model.Ws*KB, along with every measurement. It is for
// one-dimensional databases only (ErrDimension).
func (db *DB) SelectCategories(spec IndexSpec, counts []int, queries [][]float64, eps float64, model CostModel) (int, []CategoryMeasure, error) {
	if err := db.scalarOnly("select categories for"); err != nil {
		return 0, nil, err
	}
	p, err := db.flat("select categories for")
	if err != nil {
		return 0, nil, err
	}
	p.mu.RLock()
	defer p.mu.RUnlock()
	best, measures, err := core.SelectCategories(p.data, queries, eps, counts, model,
		core.Options{
			Kind:         categorize.Kind(spec.Method),
			Sparse:       spec.Sparse,
			Window:       spec.Window,
			MinAnswerLen: spec.MinAnswerLen,
		}, p.dir)
	if err != nil {
		return 0, nil, err
	}
	return best.Count, measures, nil
}

// ExportCSV writes every sequence as an id,v1,v2,... line — a portable dump
// readable by ImportCSV and by cmd/seqdbctl import. The format carries no
// dimension, so it is for one-dimensional databases only (ErrDimension).
func (db *DB) ExportCSV(w io.Writer) error {
	if err := db.scalarOnly("export CSV from"); err != nil {
		return err
	}
	for _, p := range db.parts {
		p.mu.RLock()
		err := p.data.WriteCSV(w)
		p.mu.RUnlock()
		if err != nil {
			return err
		}
	}
	return nil
}

// ImportCSV appends all sequences from an id,v1,v2,... stream (blank lines
// and '#' comments skipped). Like Add, it is rejected while indexes exist.
// On a malformed line nothing is imported. It is for one-dimensional
// databases only (ErrDimension).
func (db *DB) ImportCSV(r io.Reader) (int, error) {
	if err := db.scalarOnly("import CSV into"); err != nil {
		return 0, err
	}
	p, err := db.flat("import into")
	if err != nil {
		return 0, err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.indexes) > 0 {
		return 0, fmt.Errorf("seqdb: cannot import while indexes exist; drop indexes first")
	}
	parsed, err := sequence.ReadCSV(r)
	if err != nil {
		return 0, err
	}
	// Validate every id against the current dataset before mutating.
	for i := 0; i < parsed.Len(); i++ {
		if p.data.ByID(parsed.Seq(i).ID) >= 0 {
			return 0, fmt.Errorf("seqdb: sequence %q already exists", parsed.Seq(i).ID)
		}
	}
	for i := 0; i < parsed.Len(); i++ {
		s := parsed.Seq(i)
		if _, err := p.data.Add(s); err != nil {
			return i, err
		}
	}
	return parsed.Len(), nil
}
