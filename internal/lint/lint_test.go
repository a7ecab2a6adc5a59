package lint

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// loadFixture type-checks one fixture package under testdata/src.
func loadFixture(t *testing.T, loader *Loader, parts ...string) *Package {
	t.Helper()
	dir := filepath.Join(append([]string{"testdata", "src"}, parts...)...)
	pkg, err := loader.Load(dir)
	if err != nil {
		t.Fatalf("loading %s: %v", dir, err)
	}
	return pkg
}

func newTestLoader(t *testing.T) *Loader {
	t.Helper()
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	return loader
}

// findingsOf filters findings down to one check.
func findingsOf(fs []Finding, check string) []Finding {
	var out []Finding
	for _, f := range fs {
		if f.Check == check {
			out = append(out, f)
		}
	}
	return out
}

// rawFindings runs one analyzer without ignore-directive filtering.
func rawFindings(pkg *Package, a *Analyzer) []Finding {
	var raw []Finding
	a.Run(&Pass{
		Fset: pkg.Fset, Files: pkg.Files, Pkg: pkg.Types, Info: pkg.Info,
		Path: pkg.Path, Library: pkg.Library,
		check: a.Name, findings: &raw,
	})
	return raw
}

// TestAnalyzerFixtures drives every analyzer through its three fixture
// packages: bad must trigger, good must pass, and ignored must trigger
// without directives but pass with them.
func TestAnalyzerFixtures(t *testing.T) {
	loader := newTestLoader(t)
	cases := []struct {
		dir      string
		analyzer *Analyzer
		wantBad  int // findings expected in bad/
	}{
		{"panicpath", PanicPath, 1},
		{"errwrap", ErrWrap, 1},
		{"lockbalance", LockBalance, 2},
		{"goleak", GoLeak, 2},
		{"deferinloop", DeferInLoop, 2},
		{"ctxflow", CtxFlow, 2},
		{"steadystate", SteadyState, 7},
	}
	for _, tc := range cases {
		t.Run(tc.dir, func(t *testing.T) {
			all := []*Analyzer{tc.analyzer}

			bad := loadFixture(t, loader, tc.dir, "bad")
			got := findingsOf(RunPackage(bad, all), tc.analyzer.Name)
			if len(got) != tc.wantBad {
				t.Errorf("bad fixture: got %d %s findings, want %d: %v",
					len(got), tc.analyzer.Name, tc.wantBad, got)
			}

			good := loadFixture(t, loader, tc.dir, "good")
			if got := RunPackage(good, all); len(got) != 0 {
				t.Errorf("good fixture: unexpected findings: %v", got)
			}

			ignored := loadFixture(t, loader, tc.dir, "ignored")
			if raw := rawFindings(ignored, tc.analyzer); len(raw) == 0 {
				t.Errorf("ignored fixture: analyzer found nothing even before directive filtering")
			}
			if got := RunPackage(ignored, all); len(got) != 0 {
				t.Errorf("ignored fixture: directive did not suppress: %v", got)
			}
		})
	}
}

// TestFixturesMatchRegistry keeps testdata in step with Analyzers(): one
// fixture directory per registered check, named after it, plus the
// infrastructure fixtures listed here, and golden lines only for checks
// that exist. A deleted analyzer cannot leave its fixtures or golden lines
// behind, and a registered one cannot lose its negative example.
func TestFixturesMatchRegistry(t *testing.T) {
	want := map[string]bool{
		"directive": true, // malformed //lint:ignore directives, unknown //twlint: kinds
	}
	checks := map[string]bool{"directive": true}
	for _, a := range Analyzers() {
		want[a.Name] = true
		checks[a.Name] = true
	}
	entries, err := os.ReadDir(filepath.Join("testdata", "src"))
	if err != nil {
		t.Fatal(err)
	}
	got := make(map[string]bool)
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		got[e.Name()] = true
		if !want[e.Name()] {
			t.Errorf("testdata/src/%s belongs to no registered check", e.Name())
		}
	}
	for name := range want {
		if !got[name] {
			t.Errorf("no fixture directory testdata/src/%s", name)
		}
	}

	golden, err := os.Open(filepath.Join("testdata", "golden.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer golden.Close()
	sc := bufio.NewScanner(golden)
	for sc.Scan() {
		var f struct {
			Check string `json:"check"`
		}
		if err := json.Unmarshal(sc.Bytes(), &f); err != nil {
			t.Fatalf("golden line %q: %v", sc.Text(), err)
		}
		if !checks[f.Check] {
			t.Errorf("golden line for unregistered check %q: %s", f.Check, sc.Text())
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestMalformedDirective checks that a lint:ignore without a reason is
// itself reported and suppresses nothing, and that a //twlint: marker of a
// kind no check reads is reported.
func TestMalformedDirective(t *testing.T) {
	loader := newTestLoader(t)
	all := []*Analyzer{ErrWrap}

	bad := loadFixture(t, loader, "directive", "bad")
	got := RunPackage(bad, all)
	dirs := findingsOf(got, "directive")
	if len(dirs) != 2 || !strings.Contains(dirs[1].Message, "//twlint:steady-sate") {
		t.Errorf("want the reasonless ignore and the unknown marker kind, got: %v", got)
	}
	if len(findingsOf(got, "errwrap")) != 1 {
		t.Errorf("reasonless directive must not suppress; got: %v", got)
	}

	good := loadFixture(t, loader, "directive", "good")
	if got := RunPackage(good, all); len(got) != 0 {
		t.Errorf("good fixture: unexpected findings: %v", got)
	}
}

// TestFindingFormat pins the file:line: [check] message report shape the
// Makefile and editors rely on.
func TestFindingFormat(t *testing.T) {
	loader := newTestLoader(t)
	pkg := loadFixture(t, loader, "errwrap", "bad")
	got := RunPackage(pkg, []*Analyzer{ErrWrap})
	if len(got) != 1 {
		t.Fatalf("want 1 finding, got %v", got)
	}
	s := got[0].String()
	want := filepath.Join("errwrap", "bad", "bad.go")
	if !strings.Contains(s, want) || !strings.Contains(s, ": [errwrap] ") {
		t.Errorf("finding %q does not match file:line: [check] message", s)
	}
	if got[0].Pos.Line == 0 {
		t.Errorf("finding has no line number: %q", s)
	}
}

// TestLibraryScope checks that the strict library checks stay out of
// command and example binaries.
func TestLibraryScope(t *testing.T) {
	loader := newTestLoader(t)
	for path, want := range map[string]bool{
		loader.ModPath() + "/internal/dtw":   true,
		loader.ModPath() + "/seqdb":          true,
		loader.ModPath() + "/cmd/twlint":     false,
		loader.ModPath() + "/examples/stock": false,
		loader.ModPath():                     false,
	} {
		if got := loader.isLibraryPath(path); got != want {
			t.Errorf("isLibraryPath(%q) = %v, want %v", path, got, want)
		}
	}
}

// TestExpandPatterns checks recursive and plain-directory patterns.
func TestExpandPatterns(t *testing.T) {
	loader := newTestLoader(t)
	root := loader.Root()

	dirs, err := loader.ExpandPatterns(root, []string{"./..."})
	if err != nil {
		t.Fatalf("ExpandPatterns ./...: %v", err)
	}
	var sawLint, sawTestdata bool
	for _, d := range dirs {
		if strings.HasSuffix(d, filepath.Join("internal", "lint")) {
			sawLint = true
		}
		if strings.Contains(d, "testdata") {
			sawTestdata = true
		}
	}
	if !sawLint {
		t.Errorf("./... did not include internal/lint: %v", dirs)
	}
	if sawTestdata {
		t.Errorf("./... must skip testdata fixtures: %v", dirs)
	}

	one, err := loader.ExpandPatterns(root, []string{"internal/lint"})
	if err != nil || len(one) != 1 {
		t.Fatalf("ExpandPatterns plain dir: %v, %v", one, err)
	}
}
