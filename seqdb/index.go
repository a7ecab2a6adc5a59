package seqdb

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"

	"twsearch/internal/categorize"
	"twsearch/internal/core"
	"twsearch/internal/disktree"
	"twsearch/internal/storage"
)

// ErrNoIndex reports a search against an index name the database does not
// have. Errors returned by SearchWith and friends wrap it, so callers (and
// the network server) can classify lookup failures with errors.Is.
var ErrNoIndex = errors.New("no such index")

// ErrIndexRead reports a search that failed reading an index file: a page
// read came up short or failed, or a node record is not what it claims to
// be — the file was cut or damaged after it was opened. errors.Is finds it
// under such a search's error; the network server reports it as internal,
// not as the client's fault.
var ErrIndexRead = storage.ErrRead

func errNoIndex(name string) error {
	return fmt.Errorf("seqdb: no index %q: %w", name, ErrNoIndex)
}

// Method selects how continuous values are turned into category symbols.
type Method string

// The available categorization methods. MethodExact keeps every distinct
// value as its own point category, giving the paper's exact suffix tree ST
// (a large index whose filter distances are exact, so they prune as tightly
// as any can; its answers are verified like every index's); the others
// give the compact lossy indexes ST_C / SST_C.
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
	// Categories is the number of categories (ignored by MethodExact): per
	// dimension in a database of dimension d > 1, whose categories are the
	// cells of a grid. The default is 20, and 8 per dimension when d > 1.
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
	// PoolPages bounds the tree file's buffer pool (default 256) where the
	// database is opened with BackendPool, or where mmap falls back to the
	// pool; a mapped tree is not bounded by it.
	PoolPages int
	// Encoding selects the node record serialization of the tree file
	// (zero value = EncodingV1 when d = 1 and EncodingV2 when d > 1;
	// EncodingV2 is the compact varint format). BuildIndex rejects any
	// other value; Index reports the encoding built.
	Encoding Encoding
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

func (p *part) treePath(name string) string {
	return filepath.Join(p.dir, "idx-"+name+".twt")
}

// recordPath is the index's record: its settings and scheme, and the file
// that commits it.
func (p *part) recordPath(name string) string {
	return filepath.Join(p.dir, "idx-"+name+".cat")
}

// BuildIndex builds and persists a new index, shard by shard; each shard is
// exclusively locked for the duration of its build. It is all or nothing:
// when a shard fails, the tree its build wrote is removed, and the index is
// dropped again from the shards this call had already built, so the call
// can simply be repeated after fixing the cause. Shards that had the index
// before the call keep it.
func (db *DB) BuildIndex(name string, spec IndexSpec) error {
	for i, p := range db.parts {
		if err := p.buildIndex(name, spec); err != nil {
			errs := []error{db.inShard(i, err)}
			for j, built := range db.parts[:i] {
				if err := built.dropIndex(name); err != nil {
					errs = append(errs, fmt.Errorf("seqdb: rolling back index %q: %w", name, db.inShard(j, err)))
				}
			}
			return errors.Join(errs...)
		}
	}
	return nil
}

// buildIndex commits the tree (inside core.Build) and then the record, the
// index's one commit point: a tree without its record is an uncommitted
// build, which Open does not open and the next build of the name
// overwrites.
func (p *part) buildIndex(name string, spec IndexSpec) error {
	if err := validIndexName(name); err != nil {
		return err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if _, exists := p.indexes[name]; exists {
		return fmt.Errorf("seqdb: index %q already exists", name)
	}
	if p.data.Len() == 0 {
		return errors.New("seqdb: cannot index an empty database")
	}
	if spec.Encoding != 0 && spec.Encoding != EncodingV1 && spec.Encoding != EncodingV2 {
		return fmt.Errorf("seqdb: index %q: record encoding %d: %w", name, spec.Encoding, disktree.ErrUnsupportedEncoding)
	}
	ix, err := core.Build(p.data, p.treePath(name), core.Options{
		Kind:         categorize.Kind(spec.Method),
		Categories:   spec.Categories,
		Sparse:       spec.Sparse,
		Window:       spec.Window,
		MinAnswerLen: spec.MinAnswerLen,
		Encoding:     spec.Encoding,
		PoolPages:    spec.PoolPages,
		Backend:      p.backend,
	})
	if err != nil {
		return err
	}
	rec := core.IndexRecord{Window: ix.Window, PoolPages: max(spec.PoolPages, 0), Scheme: ix.Scheme}
	if err := storage.Commit(p.recordPath(name), rec.Write); err != nil {
		ix.Close()
		return errors.Join(err, removeFile(p.treePath(name)))
	}
	p.attach(name, ix, rec.PoolPages)
	return nil
}

// attach adds an index, built or opened with a pool of poolPages pages, to
// the part's open indexes.
func (p *part) attach(name string, ix *core.Index, poolPages int) {
	ix.DisableEnvelopes = p.envelopes == EnvelopesOff
	p.indexes[name] = &openIndex{spec: specOf(ix, poolPages), ix: ix}
}

// specOf reports the spec of ix, opened with a pool of poolPages pages, as
// its files hold it, so an index just built and the same index reopened
// report alike.
func specOf(ix *core.Index, poolPages int) IndexSpec {
	return IndexSpec{
		Method:       Method(ix.Scheme.Kind()),
		Categories:   ix.Scheme.NumCategories(),
		Sparse:       ix.Tree.Sparse(),
		Window:       ix.Window,
		MinAnswerLen: ix.MinAnswerLen(),
		PoolPages:    poolPages,
		Encoding:     ix.Tree.Encoding(),
	}
}

// openIndexFiles attaches a persisted index during Open. A record that
// does not parse, or whose scheme is of another dimension than the dataset
// (ErrDimension), is refused, naming the file.
func (p *part) openIndexFiles(name string) error {
	path := p.recordPath(name)
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	rec, err := core.ReadIndexRecord(f)
	f.Close()
	if err != nil {
		return fmt.Errorf("seqdb: %s: %w", path, err)
	}
	if rec.Scheme.Dim() != p.data.Dim() {
		return fmt.Errorf("seqdb: %s holds a %d-dimensional scheme for a %d-dimensional dataset: %w", path, rec.Scheme.Dim(), p.data.Dim(), ErrDimension)
	}
	ix, err := core.OpenWith(p.data, rec.Scheme, p.treePath(name), rec.PoolPages, rec.Window, p.backend)
	if err != nil {
		return err
	}
	p.attach(name, ix, rec.PoolPages)
	return nil
}

// DropIndex closes and deletes an index on every shard that has it.
func (db *DB) DropIndex(name string) error {
	var errs []error
	found := false
	for i, p := range db.parts {
		err := p.dropIndex(name)
		switch {
		case err == nil:
			found = true
		case errors.Is(err, ErrNoIndex):
		default:
			errs = append(errs, db.inShard(i, err))
		}
	}
	if err := errors.Join(errs...); err != nil {
		return err
	}
	if !found {
		return errNoIndex(name)
	}
	return nil
}

func (p *part) dropIndex(name string) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	oi, ok := p.indexes[name]
	if !ok {
		return errNoIndex(name)
	}
	delete(p.indexes, name)
	if err := oi.ix.Close(); err != nil {
		return err
	}
	// The record first: while it stands, the index is whole on disk.
	if err := removeFile(p.recordPath(name)); err != nil {
		return err
	}
	return removeFile(p.treePath(name))
}

// removeFile deletes the file at path; one already gone is not an error.
func removeFile(path string) error {
	if err := os.Remove(path); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return err
	}
	return nil
}

// Indexes lists the open indexes' names. Open refuses a sharded root whose
// shards disagree on them, so shard 0 speaks for every shard.
func (db *DB) Indexes() []string { return db.parts[0].indexNames() }

func (p *part) indexNames() []string {
	p.mu.RLock()
	defer p.mu.RUnlock()
	out := make([]string, 0, len(p.indexes))
	for name := range p.indexes {
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

// Index returns metadata for a named index: the spec shard 0's files hold
// (the fitted category count, not the one asked for; the same after a
// reopen), and sizes and counts summed over the shards.
func (db *DB) Index(name string) (IndexInfo, error) {
	info := IndexInfo{Name: name}
	for i, p := range db.parts {
		p.mu.RLock()
		oi, ok := p.indexes[name]
		if ok {
			info.SizeBytes += oi.ix.SizeBytes()
			info.Leaves += oi.ix.Tree.NumLeaves()
			info.Nodes += oi.ix.Tree.NumNodes()
			if i == 0 {
				info.Spec = oi.spec
			}
		}
		p.mu.RUnlock()
		if !ok {
			return IndexInfo{}, errNoIndex(name)
		}
	}
	return info, nil
}
