// Command apcc-obslint validates observability artifacts: a Prometheus
// text-exposition scrape (/metrics/prom) and/or a /debug/trace JSON
// dump. The CI smoke job runs it against a live server so a broken
// exposition or silently-dead tracing fails the build instead of a
// dashboard.
//
// Exit status follows the repo's lint-tool convention: 0 = artifacts
// are valid, 1 = lint findings (malformed exposition, a trace whose
// tiles do not run back to back to its total, too few spans), 2 =
// usage or IO error.
//
// Usage:
//
//	apcc-obslint -prom metrics.txt
//	apcc-obslint -trace trace.json -min-spans 1
//	apcc-obslint -prom metrics.txt -trace trace.json -min-spans 1
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"apbcc/internal/obs"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("apcc-obslint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		promFile  = fs.String("prom", "", "Prometheus exposition file to lint")
		traceFile = fs.String("trace", "", "/debug/trace JSON dump to lint")
		minSpans  = fs.Int("min-spans", 0, "fail unless the trace dump carries at least this many spans")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "apcc-obslint: unexpected arguments %q\n", fs.Args())
		return 2
	}
	if *promFile == "" && *traceFile == "" {
		fmt.Fprintln(stderr, "apcc-obslint: nothing to lint: pass -prom and/or -trace")
		return 2
	}

	if *promFile != "" {
		f, err := os.Open(*promFile)
		if err != nil {
			fmt.Fprintln(stderr, "apcc-obslint:", err)
			return 2
		}
		samples, err := obs.LintProm(f)
		f.Close()
		if err != nil {
			fmt.Fprintf(stderr, "apcc-obslint: %s: %v\n", *promFile, err)
			return 1
		}
		if samples == 0 {
			fmt.Fprintf(stderr, "apcc-obslint: %s: no samples\n", *promFile)
			return 1
		}
		fmt.Fprintf(stdout, "apcc-obslint: %s: %d samples ok\n", *promFile, samples)
	}
	if *traceFile != "" {
		f, err := os.Open(*traceFile)
		if err != nil {
			fmt.Fprintln(stderr, "apcc-obslint:", err)
			return 2
		}
		traces, spans, err := obs.LintTraceDump(f)
		f.Close()
		if err != nil {
			fmt.Fprintf(stderr, "apcc-obslint: %s: %v\n", *traceFile, err)
			return 1
		}
		if spans < *minSpans {
			fmt.Fprintf(stderr, "apcc-obslint: %s: %d spans across %d traces, want >= %d\n", *traceFile, spans, traces, *minSpans)
			return 1
		}
		fmt.Fprintf(stdout, "apcc-obslint: %s: %d traces, %d spans ok\n", *traceFile, traces, spans)
	}
	return 0
}
