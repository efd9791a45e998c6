package main

import (
	"bytes"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestProtocolHandshake covers the cmd/go tool-protocol entry points
// and the exit-code convention for usage errors.
func TestProtocolHandshake(t *testing.T) {
	var stdout, stderr bytes.Buffer

	if code := run([]string{"-V=full"}, &stdout, &stderr); code != 0 {
		t.Fatalf("run(-V=full) = %d, want 0 (stderr: %s)", code, &stderr)
	}
	if !strings.Contains(stdout.String(), " version ") {
		t.Errorf("-V=full output %q does not contain %q", stdout.String(), " version ")
	}

	stdout.Reset()
	if code := run([]string{"-flags"}, &stdout, &stderr); code != 0 || strings.TrimSpace(stdout.String()) != "[]" {
		t.Errorf("run(-flags) = %d with output %q, want 0 with []", code, stdout.String())
	}

	stdout.Reset()
	if code := run([]string{"-list"}, &stdout, &stderr); code != 0 {
		t.Errorf("run(-list) = %d, want 0", code)
	}
	for _, name := range []string{"appendapi", "corrupterr", "lockdisc", "spanpair", "allowcheck"} {
		if !strings.Contains(stdout.String(), name) {
			t.Errorf("-list output is missing analyzer %q:\n%s", name, stdout.String())
		}
	}
	if lines := strings.Count(strings.TrimSpace(stdout.String()), "\n") + 1; lines != 5 {
		t.Errorf("-list prints %d lines, want the five analyzers:\n%s", lines, stdout.String())
	}

	if code := run([]string{"-V=short"}, &stdout, &stderr); code != 2 {
		t.Errorf("run(-V=short) = %d, want 2 (usage error)", code)
	}
	if code := run([]string{"-nosuchflag"}, &stdout, &stderr); code != 2 {
		t.Errorf("run(-nosuchflag) = %d, want 2 (usage error)", code)
	}
	if code := run([]string{filepath.Join(t.TempDir(), "missing.cfg")}, &stdout, &stderr); code != 2 {
		t.Errorf("run(missing.cfg) = %d, want 2 (IO error)", code)
	}
}

// buildTool compiles apcc-lint into a temp dir once per test run.
func buildTool(t *testing.T) string {
	t.Helper()
	exe := filepath.Join(t.TempDir(), "apcc-lint")
	cmd := exec.Command("go", "build", "-o", exe, ".")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building apcc-lint: %v\n%s", err, out)
	}
	return exe
}

// runTool executes the built binary inside the fixture module and
// returns its exit code and stderr.
func runTool(t *testing.T, exe string, args ...string) (int, string) {
	t.Helper()
	cmd := exec.Command(exe, args...)
	cmd.Dir = filepath.Join("testdata", "lintfixture")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err := cmd.Run()
	if err == nil {
		return 0, stderr.String()
	}
	var exit *exec.ExitError
	if ee, ok := err.(*exec.ExitError); ok {
		exit = ee
	} else {
		t.Fatalf("running %s: %v", exe, err)
	}
	return exit.ExitCode(), stderr.String()
}

// TestSmokeFixtureModule runs the real binary, through the real
// `go vet -vettool` loader, over a module with seeded violations and
// asserts the unified exit codes (1 findings, 0 clean) and the
// diagnostic text.
func TestSmokeFixtureModule(t *testing.T) {
	if _, err := exec.LookPath("go"); err != nil {
		t.Skipf("go tool not in PATH: %v", err)
	}
	exe := buildTool(t)

	code, stderr := runTool(t, exe, "./...")
	if code != 1 {
		t.Fatalf("apcc-lint ./... over seeded-violation module = exit %d, want 1\nstderr:\n%s", code, stderr)
	}
	for _, want := range []string{
		"[corrupterr]",
		"errors.New in a decode path",
	} {
		if !strings.Contains(stderr, want) {
			t.Errorf("stderr is missing %q:\n%s", want, stderr)
		}
	}
	if strings.Contains(stderr, "clean.go") {
		t.Errorf("diagnostics reported in the clean package:\n%s", stderr)
	}

	code, stderr = runTool(t, exe, "./clean/...")
	if code != 0 {
		t.Fatalf("apcc-lint ./clean/... = exit %d, want 0\nstderr:\n%s", code, stderr)
	}
}
