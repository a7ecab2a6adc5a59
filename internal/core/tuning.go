package core

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"time"

	"twsearch/internal/categorize"
	"twsearch/internal/sequence"
)

// SelectCategories runs the paper's Section 5.1 procedure for picking the
// number of categories: build a trial index per candidate count, measure
// the average query-processing cost C_t (seconds over the sample queries at
// the given threshold) and the storage cost C_s (index kilobytes), and
// return the candidate minimizing W_t·C_t + W_s·C_s. Trial index files are
// created in dir and removed.
//
//twlint:ctx-root offline measurement loop: each trial query is timed to completion, an aborted one would skew C_t
func SelectCategories(
	data *sequence.Dataset,
	queries [][]float64,
	eps float64,
	counts []int,
	model categorize.CostModel,
	opts Options,
	dir string,
) (categorize.Measure, []categorize.Measure, error) {
	if len(counts) == 0 {
		return categorize.Measure{}, nil, errors.New("core: no candidate counts")
	}
	if len(queries) == 0 {
		return categorize.Measure{}, nil, errors.New("core: no sample queries")
	}
	measures := make([]categorize.Measure, 0, len(counts))
	for _, c := range counts {
		o := opts
		o.Categories = c
		ix, err := Build(data, filepath.Join(dir, fmt.Sprintf(".tune-%d.twt", c)), o)
		if err != nil {
			return categorize.Measure{}, nil, fmt.Errorf("core: trial build c=%d: %w", c, err)
		}
		start := time.Now()
		for _, q := range queries {
			if _, _, err := ix.Search(context.Background(), q, eps); err != nil {
				ix.RemoveFile()
				return categorize.Measure{}, nil, err
			}
		}
		elapsed := time.Since(start)
		measures = append(measures, categorize.Measure{
			Count:     c,
			TimeCost:  elapsed.Seconds() / float64(len(queries)),
			SpaceCost: float64(ix.SizeBytes()) / 1024,
		})
		if err := ix.RemoveFile(); err != nil {
			return categorize.Measure{}, nil, err
		}
	}
	best, err := model.SelectCount(measures)
	return best, measures, err
}
