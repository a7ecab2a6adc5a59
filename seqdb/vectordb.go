package seqdb

import (
	"context"

	"twsearch/internal/multivar"
)

// VectorDB, VectorIndexSpec, VectorMatch, CreateVector and OpenVector are a
// DB of dimension d > 1 under the names and the points-as-slices form the
// benchmark under bench/ calls. Every method forwards to DB.
type (
	VectorDB        struct{ db *DB }
	VectorIndexSpec struct{ CatsPerDim, Window int }
	VectorMatch     = Match
)

// CreateVector is CreateDim.
func CreateVector(dir string, dim int) (*VectorDB, error) {
	db, err := CreateDim(dir, dim)
	return &VectorDB{db}, err
}

// OpenVector is Open.
func OpenVector(dir string) (*VectorDB, error) {
	db, err := Open(dir)
	return &VectorDB{db}, err
}

// Add is DB.Add of the points flattened.
func (v *VectorDB) Add(id string, points [][]float64) error {
	return v.db.Add(id, multivar.Flatten(points))
}

// Save is DB.Save.
func (v *VectorDB) Save() error { return v.db.Save() }

// Close is DB.Close.
func (v *VectorDB) Close() error { return v.db.Close() }

// BuildIndex is DB.BuildIndex with CatsPerDim categories per dimension.
func (v *VectorDB) BuildIndex(name string, spec VectorIndexSpec) error {
	return v.db.BuildIndex(name, IndexSpec{Categories: spec.CatsPerDim, Window: spec.Window})
}

// Search is DB.SearchWith of the query's points flattened.
//
//twlint:ctx-root the benchmark under bench/ calls this form; DB.SearchWith takes the caller's context
func (v *VectorDB) Search(indexName string, q [][]float64, eps float64) ([]VectorMatch, error) {
	ms, _, err := v.db.SearchWith(context.Background(), indexName, multivar.Flatten(q), eps, SearchOptions{})
	return ms, err
}
