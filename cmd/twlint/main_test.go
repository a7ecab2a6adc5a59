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

	if code := run([]string{fixtures + "errwrap/good"}, &out, &errOut); code != 0 {
		t.Errorf("good fixture: exit %d, output:\n%s%s", code, out.String(), errOut.String())
	}

	out.Reset()
	if code := run([]string{fixtures + "errwrap/bad"}, &out, &errOut); code != 1 {
		t.Errorf("bad fixture: exit %d, want 1", code)
	}
	if !strings.Contains(out.String(), "[errwrap]") {
		t.Errorf("bad fixture output missing [errwrap]: %q", out.String())
	}

	if code := run([]string{"no/such/dir"}, &out, &errOut); code != 2 {
		t.Errorf("missing dir: exit %d, want 2", code)
	}
}

// TestNegativeFixtures runs the driver over every analyzer's bad fixture —
// the acceptance gate that each check fails its negative example.
func TestNegativeFixtures(t *testing.T) {
	for _, dir := range []string{
		"panicpath", "errwrap", "lockbalance", "goleak",
		"deferinloop", "ctxflow", "steadystate", "directive",
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
		"panicpath", "errwrap", "lockbalance", "goleak",
		"deferinloop", "ctxflow", "steadystate",
	} {
		if !strings.Contains(out.String(), name) {
			t.Errorf("-checks output missing %s:\n%s", name, out.String())
		}
	}
}

// TestJSONOutput pins the -json wire form: one object per line with file,
// line, check and message fields, same exit-code contract as text mode.
func TestJSONOutput(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-json", fixtures + "errwrap/bad"}, &out, &errOut); code != 1 {
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
	if f.Check != "errwrap" || f.Line == 0 || f.File == "" || f.Message == "" {
		t.Errorf("incomplete finding object: %+v", f)
	}

	out.Reset()
	if code := run([]string{"-json", fixtures + "errwrap/good"}, &out, &errOut); code != 0 {
		t.Errorf("-json good fixture: exit %d, want 0", code)
	}
	if out.Len() != 0 {
		t.Errorf("-json good fixture: unexpected output %q", out.String())
	}
}
