package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

const fixtures = "../../internal/lint/testdata/src/"

// TestExitCodes pins the contract the Makefile depends on: clean packages
// exit 0, findings exit 1, bad arguments exit 2.
func TestExitCodes(t *testing.T) {
	var out, errOut bytes.Buffer

	if code := run([]string{fixtures + "floateq/good"}, &out, &errOut); code != 0 {
		t.Errorf("good fixture: exit %d, output:\n%s%s", code, out.String(), errOut.String())
	}

	out.Reset()
	if code := run([]string{fixtures + "floateq/bad"}, &out, &errOut); code != 1 {
		t.Errorf("bad fixture: exit %d, want 1", code)
	}
	if !strings.Contains(out.String(), "[floateq]") {
		t.Errorf("bad fixture output missing [floateq]: %q", out.String())
	}

	if code := run([]string{"no/such/dir"}, &out, &errOut); code != 2 {
		t.Errorf("missing dir: exit %d, want 2", code)
	}
}

// TestNegativeFixtures runs the driver over every analyzer's bad fixture —
// the acceptance gate that each check fails its negative example.
func TestNegativeFixtures(t *testing.T) {
	for _, dir := range []string{
		"panicpath", "errwrap", "floateq", "closecheck", "globalrand", "ctxloop",
		"boundscontract", "boundmark", "boundiface", "lockbalance", "goleak", "deferinloop",
		"poolbalance", "atomicmix", "joinbarrier",
		"wireconform", "ctxflow", "steadystate",
	} {
		var out, errOut bytes.Buffer
		if code := run([]string{fixtures + dir + "/bad"}, &out, &errOut); code != 1 {
			t.Errorf("%s/bad: exit %d, want 1 (stderr: %s)", dir, code, errOut.String())
		}
	}
}

// TestChecksFlag keeps the -checks listing wired up.
func TestChecksFlag(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-checks"}, &out, &errOut); code != 0 {
		t.Fatalf("-checks: exit %d", code)
	}
	for _, name := range []string{
		"panicpath", "errwrap", "floateq", "closecheck", "globalrand", "ctxless-loop",
		"boundscontract", "lockbalance", "goleak", "deferinloop",
		"poolbalance", "atomicmix", "joinbarrier",
		"wireconform", "ctxflow", "steadystate",
	} {
		if !strings.Contains(out.String(), name) {
			t.Errorf("-checks output missing %s:\n%s", name, out.String())
		}
	}
}

// TestOnlySkipFlags pins the suite-selection contract: -only narrows to the
// named checks, -skip removes them, an unknown name exits 2, and an ignore
// directive for a check outside the running set is not judged stale.
func TestOnlySkipFlags(t *testing.T) {
	var out, errOut bytes.Buffer

	if code := run([]string{"-only", "floateq", fixtures + "floateq/bad"}, &out, &errOut); code != 1 {
		t.Errorf("-only floateq on floateq/bad: exit %d, want 1", code)
	}
	if !strings.Contains(out.String(), "[floateq]") {
		t.Errorf("-only floateq output missing [floateq]: %q", out.String())
	}

	out.Reset()
	if code := run([]string{"-skip", "floateq", fixtures + "floateq/bad"}, &out, &errOut); code != 0 {
		t.Errorf("-skip floateq on floateq/bad: exit %d, want 0, output:\n%s", code, out.String())
	}

	out.Reset()
	if code := run([]string{"-only", "panicpath", fixtures + "floateq/bad"}, &out, &errOut); code != 0 {
		t.Errorf("-only panicpath on floateq/bad: exit %d, want 0, output:\n%s", code, out.String())
	}

	// joinbarrier/ignored carries a //lint:ignore joinbarrier directive; a
	// run without joinbarrier active must not report it stale.
	out.Reset()
	if code := run([]string{"-only", "floateq", fixtures + "joinbarrier/ignored"}, &out, &errOut); code != 0 {
		t.Errorf("-only floateq on joinbarrier/ignored: exit %d, want 0, output:\n%s", code, out.String())
	}

	errOut.Reset()
	if code := run([]string{"-only", "nosuchcheck", fixtures + "floateq/good"}, &out, &errOut); code != 2 {
		t.Errorf("-only nosuchcheck: exit %d, want 2", code)
	}
	if !strings.Contains(errOut.String(), "nosuchcheck") {
		t.Errorf("unknown-check error does not name the check: %q", errOut.String())
	}

	errOut.Reset()
	if code := run([]string{"-skip", "nosuchcheck", fixtures + "floateq/good"}, &out, &errOut); code != 2 {
		t.Errorf("-skip nosuchcheck: exit %d, want 2", code)
	}
}

// TestTimingsFlag pins the -timings contract: per-analyzer wall time goes
// to stderr (JSON objects under -json), keeping stdout byte-deterministic.
func TestTimingsFlag(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-json", "-timings", fixtures + "floateq/good"}, &out, &errOut); code != 0 {
		t.Fatalf("-json -timings good fixture: exit %d (stderr: %s)", code, errOut.String())
	}
	if out.Len() != 0 {
		t.Errorf("timings leaked into the deterministic stdout stream: %q", out.String())
	}
	lines := strings.Split(strings.TrimSpace(errOut.String()), "\n")
	seen := make(map[string]bool)
	for _, line := range lines {
		var tm struct {
			Analyzer  string `json:"analyzer"`
			ElapsedUS int64  `json:"elapsed_us"`
		}
		if err := json.Unmarshal([]byte(line), &tm); err != nil {
			t.Fatalf("timing line is not valid JSON: %v\n%s", err, line)
		}
		seen[tm.Analyzer] = true
	}
	for _, name := range []string{"boundscontract", "poolbalance", "atomicmix", "joinbarrier"} {
		if !seen[name] {
			t.Errorf("no timing reported for %s:\n%s", name, errOut.String())
		}
	}
}

// TestJSONOutput pins the -json wire form: one object per line with file,
// line, check and message fields, same exit-code contract as text mode.
func TestJSONOutput(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-json", fixtures + "floateq/bad"}, &out, &errOut); code != 1 {
		t.Fatalf("-json bad fixture: exit %d, want 1 (stderr: %s)", code, errOut.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 1 {
		t.Fatalf("want 1 finding line, got %d:\n%s", len(lines), out.String())
	}
	var f struct {
		File    string `json:"file"`
		Line    int    `json:"line"`
		Check   string `json:"check"`
		Message string `json:"message"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &f); err != nil {
		t.Fatalf("finding is not valid JSON: %v\n%s", err, lines[0])
	}
	if f.Check != "floateq" || f.Line == 0 || f.File == "" || f.Message == "" {
		t.Errorf("incomplete finding object: %+v", f)
	}

	out.Reset()
	if code := run([]string{"-json", fixtures + "floateq/good"}, &out, &errOut); code != 0 {
		t.Errorf("-json good fixture: exit %d, want 0", code)
	}
	if out.Len() != 0 {
		t.Errorf("-json good fixture: unexpected output %q", out.String())
	}
}
