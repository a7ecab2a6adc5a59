package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one module package, parsed and type-checked, ready for
// analysis.
type Package struct {
	Fset    *token.FileSet
	Path    string // import path, e.g. "twsearch/internal/dtw"
	Dir     string // absolute directory
	Files   []*ast.File
	Types   *types.Package
	Info    *types.Info
	Library bool
}

// Loader parses and type-checks module packages without any tooling beyond
// the standard library. Module-internal imports are resolved against the
// module source tree; everything else is delegated to the stdlib source
// importer, so the loader needs no pre-compiled export data.
type Loader struct {
	Fset    *token.FileSet
	root    string // module root (directory holding go.mod)
	modPath string // module path declared in go.mod

	std   types.Importer
	cache map[string]*Package
	// loading guards against import cycles, which go/types would otherwise
	// chase forever through our recursive importer.
	loading map[string]bool
}

// NewLoader locates the enclosing module of dir and returns a loader for it.
func NewLoader(dir string) (*Loader, error) {
	root, modPath, err := findModule(dir)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	return &Loader{
		Fset:    fset,
		root:    root,
		modPath: modPath,
		std:     importer.ForCompiler(fset, "source", nil),
		cache:   make(map[string]*Package),
		loading: make(map[string]bool),
	}, nil
}

// Root returns the module root directory.
func (l *Loader) Root() string { return l.root }

// ModPath returns the module path.
func (l *Loader) ModPath() string { return l.modPath }

// findModule walks up from dir to the first go.mod and reads its module
// path.
func findModule(dir string) (root, modPath string, err error) {
	dir, err = filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module "); ok {
					return dir, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("lint: %s/go.mod has no module line", dir)
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", "", fmt.Errorf("lint: no go.mod above %s", dir)
		}
		dir = parent
	}
}

// pathOf converts an absolute package directory to its module import path.
func (l *Loader) pathOf(dir string) (string, error) {
	rel, err := filepath.Rel(l.root, dir)
	if err != nil {
		return "", err
	}
	if rel == "." {
		return l.modPath, nil
	}
	if strings.HasPrefix(rel, "..") {
		return "", fmt.Errorf("lint: %s is outside module %s", dir, l.root)
	}
	return l.modPath + "/" + filepath.ToSlash(rel), nil
}

// isLibraryPath reports whether an import path belongs to the library
// surface the strict checks apply to: internal/* and seqdb. Commands and
// examples are binaries with their own, looser rules.
func (l *Loader) isLibraryPath(path string) bool {
	return strings.HasPrefix(path, l.modPath+"/internal/") ||
		path == l.modPath+"/seqdb" ||
		strings.HasPrefix(path, l.modPath+"/seqdb/")
}

// Import implements types.Importer so a package under analysis can pull in
// its module-internal dependencies; it makes the Loader self-hosting.
func (l *Loader) Import(path string) (*types.Package, error) {
	if path == l.modPath || strings.HasPrefix(path, l.modPath+"/") {
		dir := filepath.Join(l.root, filepath.FromSlash(strings.TrimPrefix(path, l.modPath)))
		pkg, err := l.Load(dir)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return l.std.Import(path)
}

// Load parses and type-checks the package in dir (non-test files only),
// caching the result by import path.
func (l *Loader) Load(dir string) (*Package, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	path, err := l.pathOf(dir)
	if err != nil {
		return nil, err
	}
	if pkg, ok := l.cache[path]; ok {
		return pkg, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("lint: import cycle through %s", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	files, names, err := l.parseDir(dir)
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("lint: no buildable Go files in %s", dir)
	}

	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := types.Config{Importer: l}
	tpkg, err := conf.Check(path, l.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s (%s): %w", path, strings.Join(names, ", "), err)
	}

	pkg := &Package{
		Fset:    l.Fset,
		Path:    path,
		Dir:     dir,
		Files:   files,
		Types:   tpkg,
		Info:    info,
		Library: l.isLibraryPath(path),
	}
	l.cache[path] = pkg
	return pkg, nil
}

// parseDir parses every non-test .go file of dir that builds on the host
// platform, in name order so runs are deterministic. Build constraints
// (//go:build lines and GOOS file suffixes) are evaluated with the default
// build context so platform-split files — like storage's mmap pair — don't
// collide in one type-check.
func (l *Loader) parseDir(dir string) ([]*ast.File, []string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, err
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		if ok, err := build.Default.MatchFile(dir, name); err != nil || !ok {
			continue
		}
		names = append(names, name)
	}
	sort.Strings(names)
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, nil, err
		}
		files = append(files, f)
	}
	return files, names, nil
}

// PackageDirs returns every package directory under root, skipping hidden
// directories and testdata trees (fixtures are loaded explicitly, never
// swept up by "./...").
func (l *Loader) PackageDirs() ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(l.root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != l.root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(d.Name(), ".go") && !strings.HasSuffix(d.Name(), "_test.go") {
			dir := filepath.Dir(path)
			if len(dirs) == 0 || dirs[len(dirs)-1] != dir {
				dirs = append(dirs, dir)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(dirs)
	return dirs, nil
}

// ExpandPatterns resolves command-line package patterns relative to cwd:
// "./..."-style recursive patterns and plain directory paths.
func (l *Loader) ExpandPatterns(cwd string, patterns []string) ([]string, error) {
	var dirs []string
	seen := make(map[string]bool)
	add := func(dir string) {
		if !seen[dir] {
			seen[dir] = true
			dirs = append(dirs, dir)
		}
	}
	for _, pat := range patterns {
		if rest, ok := strings.CutSuffix(pat, "/..."); ok {
			base := filepath.Join(cwd, rest)
			if rest == "." || rest == "" {
				base = cwd
			}
			sub, err := l.subDirs(base)
			if err != nil {
				return nil, err
			}
			for _, d := range sub {
				add(d)
			}
			continue
		}
		dir := pat
		if !filepath.IsAbs(dir) {
			dir = filepath.Join(cwd, dir)
		}
		if fi, err := os.Stat(dir); err != nil || !fi.IsDir() {
			return nil, fmt.Errorf("lint: %s is not a package directory", pat)
		}
		add(dir)
	}
	return dirs, nil
}

// subDirs is PackageDirs restricted to the subtree rooted at base.
func (l *Loader) subDirs(base string) ([]string, error) {
	base, err := filepath.Abs(base)
	if err != nil {
		return nil, err
	}
	all, err := l.PackageDirs()
	if err != nil {
		return nil, err
	}
	var out []string
	for _, d := range all {
		if d == base || strings.HasPrefix(d, base+string(filepath.Separator)) {
			out = append(out, d)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("lint: no packages under %s", base)
	}
	return out, nil
}
