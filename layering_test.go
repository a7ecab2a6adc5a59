package twsearch_test

import (
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// TestEngineDoesNotImportMultivar pins the layering that makes a value a
// point of dimension 1: the engine (internal/core), its tables and
// verifier (internal/dtw) and the categorizations, grid included
// (internal/categorize), serve every dimension themselves, so none of them
// depends on internal/multivar, directly or through another package of the
// module. Only non-test files count, as `go list -deps` counts them.
func TestEngineDoesNotImportMultivar(t *testing.T) {
	const module, banned = "twsearch", "twsearch/internal/multivar"
	for _, root := range []string{"internal/core", "internal/dtw", "internal/categorize"} {
		// via[p] is the package that imports p on the way from root.
		via := map[string]string{module + "/" + root: ""}
		queue := []string{module + "/" + root}
		for len(queue) > 0 {
			path := queue[0]
			queue = queue[1:]
			if path == banned {
				chain := []string{path}
				for p := via[path]; p != ""; p = via[p] {
					chain = append([]string{p}, chain...)
				}
				t.Errorf("%s depends on %s: %s", root, banned, strings.Join(chain, " -> "))
				break
			}
			pkg, err := build.Default.ImportDir(filepath.FromSlash(strings.TrimPrefix(path, module+"/")), 0)
			if err != nil {
				t.Fatalf("%s: %v", path, err)
			}
			for _, imp := range pkg.Imports {
				if _, seen := via[imp]; !seen && strings.HasPrefix(imp, module+"/") {
					via[imp] = path
					queue = append(queue, imp)
				}
			}
		}
	}
}

// TestFilesCommitThroughStorage holds every file a database writes to the
// one commit path, storage.Commit and storage.CommitPath: no non-test file
// outside internal/storage, cmd, examples and bench names os.Create,
// os.WriteFile, os.Rename, os.CreateTemp or os.MkdirTemp.
func TestFilesCommitThroughStorage(t *testing.T) {
	banned := map[string]bool{"Create": true, "WriteFile": true, "Rename": true, "CreateTemp": true, "MkdirTemp": true}
	skip := map[string]bool{"internal/storage": true, "cmd": true, "examples": true, "bench": true}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		slash := filepath.ToSlash(path)
		if d.IsDir() {
			if skip[slash] || d.Name() == "testdata" || (path != "." && strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		osName := ""
		for _, imp := range f.Imports {
			if imp.Path.Value == `"os"` {
				osName = "os"
				if imp.Name != nil {
					osName = imp.Name.Name
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok && osName != "" && banned[sel.Sel.Name] {
				if x, ok := sel.X.(*ast.Ident); ok && x.Name == osName {
					t.Errorf("%s: os.%s writes a file outside storage.Commit", fset.Position(sel.Pos()), sel.Sel.Name)
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
