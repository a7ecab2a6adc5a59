package seqdb

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"twsearch/internal/categorize"
	"twsearch/internal/core"
	"twsearch/internal/disktree"
)

// ErrNoIndex reports a search against an index name the database does not
// have. Errors returned by SearchWith and friends wrap it, so callers (and
// the network server) can classify lookup failures with errors.Is.
var ErrNoIndex = errors.New("no such index")

func errNoIndex(name string) error {
	return fmt.Errorf("seqdb: no index %q: %w", name, ErrNoIndex)
}

// Method selects how continuous values are turned into category symbols.
type Method string

// The available categorization methods. MethodExact keeps every distinct
// value as its own point category, giving the paper's exact suffix tree ST
// (large index, no post-processing); the others give the compact lossy
// indexes ST_C / SST_C.
const (
	MethodExact       Method = Method(categorize.KindIdentity)
	MethodEqualLength Method = Method(categorize.KindEqualLength)
	MethodMaxEntropy  Method = Method(categorize.KindMaxEntropy)
	MethodKMeans      Method = Method(categorize.KindKMeans)
)

// IndexSpec describes an index to build.
type IndexSpec struct {
	// Method defaults to MethodMaxEntropy — the configuration the paper
	// recommends after its Section 7.1 study.
	Method Method
	// Categories is the number of categories (default 20; ignored by
	// MethodExact).
	Categories int
	// Sparse stores only run-head suffixes — the paper's SST_C.
	Sparse bool
	// Window, when positive, constrains matching to a Sakoe–Chiba band of
	// that half-width and prunes by the implied answer-length bounds
	// (the paper's conclusion-section extension). Zero or negative means
	// unconstrained.
	Window int
	// MinAnswerLen, when > 1, shrinks the index by skipping suffixes
	// shorter than this (the conclusion's other space optimization);
	// Search then returns only answers of at least this length.
	MinAnswerLen int
	// PoolPages bounds the tree file's buffer pool (default 256).
	PoolPages int
	// Encoding selects the node record serialization of the tree file
	// (zero value = EncodingV1; EncodingV2 is the compact varint format).
	// BuildIndex rejects any other value; Index reports the encoding built.
	Encoding Encoding
}

func (s IndexSpec) withDefaults() IndexSpec {
	if s.Method == "" {
		s.Method = MethodMaxEntropy
	}
	if s.Categories == 0 {
		s.Categories = 20
	}
	if s.Window <= 0 {
		s.Window = -1
	}
	return s
}

func validIndexName(name string) error {
	if name == "" {
		return errors.New("seqdb: empty index name")
	}
	for _, r := range name {
		if !(r == '-' || r == '_' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') || (r >= '0' && r <= '9')) {
			return fmt.Errorf("seqdb: index name %q contains %q", name, r)
		}
	}
	return nil
}

func (db *DB) treePath(name string) string {
	return filepath.Join(db.dir, "idx-"+name+".twt")
}

func (db *DB) schemePath(name string) string {
	return filepath.Join(db.dir, "idx-"+name+".cat")
}

func (db *DB) metaPath(name string) string {
	return filepath.Join(db.dir, "idx-"+name+".meta")
}

// BuildIndex builds and persists a new index. The database is exclusively
// locked for the duration of the build.
func (db *DB) BuildIndex(name string, spec IndexSpec) error {
	if err := validIndexName(name); err != nil {
		return err
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, exists := db.indexes[name]; exists {
		return fmt.Errorf("seqdb: index %q already exists", name)
	}
	if db.data.Len() == 0 {
		return errors.New("seqdb: cannot index an empty database")
	}
	spec = spec.withDefaults()
	if spec.Encoding != 0 && spec.Encoding != EncodingV1 && spec.Encoding != EncodingV2 {
		return fmt.Errorf("seqdb: index %q: record encoding %d: %w", name, spec.Encoding, disktree.ErrUnsupportedEncoding)
	}
	ix, err := core.Build(db.data, db.treePath(name), core.Options{
		Kind:         categorize.Kind(spec.Method),
		Categories:   spec.Categories,
		Sparse:       spec.Sparse,
		Window:       spec.Window,
		MinAnswerLen: spec.MinAnswerLen,
		Build:        disktree.BuildOptions{PoolPages: spec.PoolPages, Encoding: spec.Encoding},
	})
	if err != nil {
		return err
	}
	ix.DisableEnvelopes = db.envelopes == EnvelopesOff
	spec.Encoding = ix.Tree.Encoding()
	if err := db.persistIndexMeta(name, spec, ix); err != nil {
		ix.RemoveFile()
		return err
	}
	db.indexes[name] = &openIndex{spec: spec, ix: ix}
	return nil
}

func (db *DB) persistIndexMeta(name string, spec IndexSpec, ix *core.Index) error {
	sf, err := os.Create(db.schemePath(name))
	if err != nil {
		return err
	}
	if err := ix.Scheme.Write(sf); err != nil {
		sf.Close()
		return err
	}
	if err := sf.Close(); err != nil {
		return err
	}
	meta := fmt.Sprintf("window=%d\npool_pages=%d\n", spec.Window, spec.PoolPages)
	return os.WriteFile(db.metaPath(name), []byte(meta), 0o644)
}

// openIndexFiles attaches a persisted index during Open.
func (db *DB) openIndexFiles(name string) error {
	sf, err := os.Open(db.schemePath(name))
	if err != nil {
		return err
	}
	scheme, err := categorize.ReadScheme(sf)
	sf.Close()
	if err != nil {
		return err
	}
	window, poolPages, err := readIndexMeta(db.metaPath(name))
	if err != nil {
		return err
	}
	ix, err := core.OpenWith(db.data, scheme, db.treePath(name), poolPages, window, db.backend)
	if err != nil {
		return err
	}
	ix.DisableEnvelopes = db.envelopes == EnvelopesOff
	db.indexes[name] = &openIndex{
		spec: IndexSpec{
			Method:       Method(scheme.Kind()),
			Categories:   scheme.NumCategories(),
			Sparse:       ix.Tree.Sparse(),
			Window:       window,
			MinAnswerLen: ix.MinAnswerLen(),
			PoolPages:    poolPages,
			Encoding:     ix.Tree.Encoding(),
		},
		ix: ix,
	}
	return nil
}

// DropIndex closes and deletes an index.
func (db *DB) DropIndex(name string) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	oi, ok := db.indexes[name]
	if !ok {
		return errNoIndex(name)
	}
	delete(db.indexes, name)
	if err := oi.ix.Close(); err != nil {
		return err
	}
	return removeIndexFiles(db.metaPath(name), db.schemePath(name), db.treePath(name))
}

// Indexes lists the open indexes' names.
func (db *DB) Indexes() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := make([]string, 0, len(db.indexes))
	for name := range db.indexes {
		out = append(out, name)
	}
	return out
}

// IndexInfo describes one index.
type IndexInfo struct {
	Name      string
	Spec      IndexSpec
	SizeBytes int64
	Leaves    uint64
	Nodes     uint64
}

// Index returns metadata for a named index.
func (db *DB) Index(name string) (IndexInfo, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	oi, ok := db.indexes[name]
	if !ok {
		return IndexInfo{}, errNoIndex(name)
	}
	return IndexInfo{
		Name:      name,
		Spec:      oi.spec,
		SizeBytes: oi.ix.SizeBytes(),
		Leaves:    oi.ix.Tree.NumLeaves(),
		Nodes:     oi.ix.Tree.NumNodes(),
	}, nil
}
