package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

const validProm = "# HELP apcc_x x\n# TYPE apcc_x counter\napcc_x 1\n"

const validDump = `{"traces":[{"id":1,"total_ns":5000,"spans":[
	{"stage":"route","outcome":"ok","start_ns":0,"excl_ns":1200},
	{"stage":"write","outcome":"ok","start_ns":1200,"excl_ns":3800}
]}]}`

func writeFile(t *testing.T, name, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(content), 0o666); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestExitCodes pins the unified lint-tool convention: 0 = clean,
// 1 = findings, 2 = usage/IO error.
func TestExitCodes(t *testing.T) {
	prom := writeFile(t, "metrics.txt", validProm)
	badProm := writeFile(t, "bad.txt", "apcc_x 1\n") // sample without TYPE
	dump := writeFile(t, "trace.json", validDump)
	// The write tile starts 300 ns after the route tile ends.
	badDump := writeFile(t, "bad.json", `{"traces":[{"id":1,"total_ns":5000,"spans":[
	{"stage":"route","outcome":"ok","start_ns":0,"excl_ns":1200},
	{"stage":"write","outcome":"ok","start_ns":1500,"excl_ns":3500}
]}]}`)

	cases := []struct {
		name string
		args []string
		want int
	}{
		{"clean prom", []string{"-prom", prom}, 0},
		{"clean trace", []string{"-trace", dump, "-min-spans", "1"}, 0},
		{"clean both", []string{"-prom", prom, "-trace", dump}, 0},
		{"malformed prom", []string{"-prom", badProm}, 1},
		{"broken tiling", []string{"-trace", badDump}, 1},
		{"span shortfall", []string{"-trace", dump, "-min-spans", "100"}, 1},
		{"no inputs", []string{}, 2},
		{"unknown flag", []string{"-nosuch"}, 2},
		{"positional junk", []string{"-prom", prom, "extra"}, 2},
		{"missing file", []string{"-prom", filepath.Join(t.TempDir(), "absent.txt")}, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if got := run(tc.args, &stdout, &stderr); got != tc.want {
				t.Errorf("run(%q) = %d, want %d\nstdout: %s\nstderr: %s",
					tc.args, got, tc.want, &stdout, &stderr)
			}
		})
	}
}
