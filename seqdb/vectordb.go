package seqdb

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"twsearch/internal/categorize"
	"twsearch/internal/disktree"
	"twsearch/internal/multivar"
)

// VectorDB is the multivariate counterpart of DB: sequences of fixed-
// dimension vectors (trajectories, multi-channel signals), indexed with the
// same suffix-tree machinery through an MTAH-style grid categorization —
// the paper's conclusion-section extension. A VectorDB is not safe for
// concurrent use.
type VectorDB struct {
	dir     string
	data    *multivar.Dataset
	indexes map[string]*openVectorIndex
	backend Backend // the page source index trees are read through
}

type openVectorIndex struct {
	spec VectorIndexSpec
	ix   *multivar.Index
}

// VectorMatch is one multivariate answer subsequence.
type VectorMatch struct {
	SeqID    string
	Seq      int
	Start    int
	End      int
	Distance float64
}

// VectorIndexSpec describes a multivariate index.
type VectorIndexSpec struct {
	// Method is the per-dimension categorization method (default ME).
	Method Method
	// CatsPerDim is the per-dimension category count (default 8); the grid
	// has at most CatsPerDim^dim cells, of which only observed ones are
	// materialized.
	CatsPerDim int
	// Sparse selects the sparse suffix tree.
	Sparse bool
	// Window, when positive, applies a Sakoe–Chiba band of that half-width.
	Window int
	// MinAnswerLen, when > 1, skips suffixes shorter than this and floors
	// answer lengths.
	MinAnswerLen int
	// PoolPages bounds the buffer pool (0 = default).
	PoolPages int
}

const vectorDataFileName = "vectors.twvdb"

// CreateVector initializes a new vector database for dim-dimensional
// points in dir.
func CreateVector(dir string, dim int) (*VectorDB, error) {
	if dim < 1 {
		return nil, errors.New("seqdb: dimension must be >= 1")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	dataPath := filepath.Join(dir, vectorDataFileName)
	if _, err := os.Stat(dataPath); err == nil {
		return nil, fmt.Errorf("seqdb: %s already holds a vector database", dir)
	}
	db := &VectorDB{dir: dir, data: multivar.NewDataset(dim), indexes: map[string]*openVectorIndex{}}
	if err := db.Save(); err != nil {
		return nil, err
	}
	return db, nil
}

// OpenVector loads an existing vector database and its indexes. Index trees
// are read in whichever encoding they were built in.
func OpenVector(dir string) (*VectorDB, error) { return openVector(dir, BackendPool) }

// openVector is OpenVector with the index trees read through backend.
func openVector(dir string, backend Backend) (*VectorDB, error) {
	data, err := multivar.LoadFile(filepath.Join(dir, vectorDataFileName))
	if err != nil {
		return nil, fmt.Errorf("seqdb: loading vector dataset: %w", err)
	}
	db := &VectorDB{dir: dir, data: data, indexes: map[string]*openVectorIndex{}, backend: backend}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, "vidx-") || !strings.HasSuffix(name, ".twt") {
			continue
		}
		idxName := strings.TrimSuffix(strings.TrimPrefix(name, "vidx-"), ".twt")
		if err := db.openIndexFiles(idxName); err != nil {
			db.Close()
			return nil, fmt.Errorf("seqdb: opening vector index %q: %w", idxName, err)
		}
	}
	return db, nil
}

// Close releases every open index.
func (db *VectorDB) Close() error {
	var first error
	for _, oi := range db.indexes {
		if err := oi.ix.Close(); err != nil && first == nil {
			first = err
		}
	}
	db.indexes = map[string]*openVectorIndex{}
	return first
}

// Dim returns the point dimensionality.
func (db *VectorDB) Dim() int { return db.data.Dim() }

// Len returns the number of sequences.
func (db *VectorDB) Len() int { return db.data.Len() }

// Add appends a vector sequence (points are copied). Like DB.Add, it is
// rejected while indexes exist.
func (db *VectorDB) Add(id string, points [][]float64) error {
	if len(db.indexes) > 0 {
		return errors.New("seqdb: cannot add sequences while vector indexes exist; drop them first")
	}
	coords := 0
	for _, p := range points {
		coords += len(p)
	}
	backing := make([]float64, 0, coords) // one array under all the points
	copied := make([][]float64, len(points))
	for i, p := range points {
		backing = append(backing, p...)
		copied[i] = backing[len(backing)-len(p) : len(backing) : len(backing)]
	}
	_, err := db.data.Add(multivar.Sequence{ID: id, Points: copied})
	return err
}

// Save persists the vector dataset.
func (db *VectorDB) Save() error {
	return db.data.SaveFile(filepath.Join(db.dir, vectorDataFileName))
}

// Points returns the samples of the sequence with the given id, or nil.
func (db *VectorDB) Points(id string) [][]float64 {
	for i := 0; i < db.data.Len(); i++ {
		if db.data.Seq(i).ID == id {
			return db.data.Points(i)
		}
	}
	return nil
}

func (db *VectorDB) treePath(name string) string {
	return filepath.Join(db.dir, "vidx-"+name+".twt")
}

func (db *VectorDB) gridPath(name string) string {
	return filepath.Join(db.dir, "vidx-"+name+".grid")
}

func (db *VectorDB) metaPath(name string) string {
	return filepath.Join(db.dir, "vidx-"+name+".meta")
}

// BuildIndex builds and persists a multivariate index. Its tree is written
// in the compact record encoding, v2.
func (db *VectorDB) BuildIndex(name string, spec VectorIndexSpec) error {
	return db.buildIndex(name, spec, 0)
}

// buildIndex is BuildIndex with the tree written in enc (0: the default).
func (db *VectorDB) buildIndex(name string, spec VectorIndexSpec, enc Encoding) error {
	if err := validIndexName(name); err != nil {
		return err
	}
	if _, exists := db.indexes[name]; exists {
		return fmt.Errorf("seqdb: vector index %q already exists", name)
	}
	if db.data.Len() == 0 {
		return errors.New("seqdb: cannot index an empty vector database")
	}
	if spec.Method == "" {
		spec.Method = MethodMaxEntropy
	}
	if spec.CatsPerDim == 0 {
		spec.CatsPerDim = 8
	}
	ix, err := multivar.Build(db.data, db.treePath(name), multivar.Options{
		Kind:         categorize.Kind(spec.Method),
		CatsPerDim:   spec.CatsPerDim,
		Sparse:       spec.Sparse,
		Window:       spec.Window,
		MinAnswerLen: spec.MinAnswerLen,
		Build:        disktree.BuildOptions{Encoding: enc},
	})
	if err != nil {
		return err
	}
	gf, err := os.Create(db.gridPath(name))
	if err != nil {
		ix.Close()
		os.Remove(db.treePath(name))
		return err
	}
	if err := ix.Grid.Write(gf); err != nil {
		gf.Close()
		ix.Close()
		os.Remove(db.treePath(name))
		return err
	}
	if err := gf.Close(); err != nil {
		ix.Close()
		os.Remove(db.treePath(name))
		return err
	}
	meta := fmt.Sprintf("window=%d\npool_pages=%d\n", ix.Window, spec.PoolPages)
	if err := os.WriteFile(db.metaPath(name), []byte(meta), 0o644); err != nil {
		ix.Close()
		os.Remove(db.treePath(name))
		os.Remove(db.gridPath(name))
		return err
	}
	db.indexes[name] = &openVectorIndex{spec: spec, ix: ix}
	return nil
}

func (db *VectorDB) openIndexFiles(name string) error {
	gf, err := os.Open(db.gridPath(name))
	if err != nil {
		return err
	}
	grid, err := multivar.ReadGrid(gf)
	gf.Close()
	if err != nil {
		return err
	}
	window, poolPages, err := readIndexMeta(db.metaPath(name))
	if err != nil {
		return err
	}
	ix, err := multivar.OpenWith(db.data, grid, db.treePath(name), poolPages, window, db.backend)
	if err != nil {
		return err
	}
	db.indexes[name] = &openVectorIndex{
		spec: VectorIndexSpec{
			Sparse:       ix.Tree.Sparse(),
			Window:       window,
			MinAnswerLen: ix.MinAnswerLen(),
			PoolPages:    poolPages,
		},
		ix: ix,
	}
	return nil
}

// DropIndex closes and deletes a vector index.
func (db *VectorDB) DropIndex(name string) error {
	oi, ok := db.indexes[name]
	if !ok {
		return fmt.Errorf("seqdb: no vector index %q", name)
	}
	delete(db.indexes, name)
	if err := oi.ix.Close(); err != nil {
		return err
	}
	return removeIndexFiles(db.metaPath(name), db.gridPath(name), db.treePath(name))
}

// Indexes lists the open vector indexes.
func (db *VectorDB) Indexes() []string {
	out := make([]string, 0, len(db.indexes))
	for name := range db.indexes {
		out = append(out, name)
	}
	return out
}

// Search returns every subsequence within time warping distance eps of the
// vector query, with no false dismissals.
//
//twlint:ctx-root the vector API has no context forms yet; the engine below takes one
func (db *VectorDB) Search(indexName string, q [][]float64, eps float64) ([]VectorMatch, error) {
	oi, ok := db.indexes[indexName]
	if !ok {
		return nil, fmt.Errorf("seqdb: no vector index %q", indexName)
	}
	ms, _, err := oi.ix.Search(context.Background(), q, eps)
	if err != nil {
		return nil, err
	}
	return db.publicMatches(ms), nil
}

// SearchKNN returns the k nearest vector subsequences.
//
//twlint:ctx-root the vector API has no context forms yet; the engine below takes one
func (db *VectorDB) SearchKNN(indexName string, q [][]float64, k int) ([]VectorMatch, error) {
	oi, ok := db.indexes[indexName]
	if !ok {
		return nil, fmt.Errorf("seqdb: no vector index %q", indexName)
	}
	ms, _, err := oi.ix.SearchKNN(context.Background(), q, k)
	if err != nil {
		return nil, err
	}
	return db.publicMatches(ms), nil
}

// SeqScan runs the exhaustive multivariate baseline.
func (db *VectorDB) SeqScan(q [][]float64, eps float64) ([]VectorMatch, error) {
	ms, _, err := multivar.SeqScan(db.data, q, eps, -1)
	if err != nil {
		return nil, err
	}
	return db.publicMatches(ms), nil
}

func (db *VectorDB) publicMatches(ms []multivar.Match) []VectorMatch {
	out := make([]VectorMatch, len(ms))
	for i, m := range ms {
		out[i] = VectorMatch{
			SeqID:    db.data.Seq(m.Ref.Seq).ID,
			Seq:      m.Ref.Seq,
			Start:    m.Ref.Start,
			End:      m.Ref.End,
			Distance: m.Distance,
		}
	}
	return out
}
