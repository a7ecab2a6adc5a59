package twsearch_test

import (
	"go/build"
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
