// Command apcc-bench is the serving benchmark: it starts an in-process
// service.Server on loopback, drives it closed-loop from two clients on
// two keep-alive connections, verifies every byte it receives against
// the client's own unpacked images, and reports the end-to-end and
// per-layer metrics BENCHMARK.json names, each with its unit.
//
// Run it from the root of the repository:
//
//	bash cmd/apcc-bench/run.sh                       # all workloads, all metrics
//	bash cmd/apcc-bench/run.sh --workload l2-miss --seed 3 --seconds 20 --trace 0
//	bash cmd/apcc-bench/run.sh -runs 5 -out a.json   # alternate workloads, 5 rounds
//	bash cmd/apcc-bench/run.sh -compare a.json b.json
//
// A single run ends with one JSON line: correct, attempted, failed and
// the metrics of its -trace mode. The exit status is non-zero when any
// response was wrong or failed, or any resilience event fired.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("apcc-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run (default: every workload, alternating)")
	seed := fs.Int64("seed", 1, "seed of the CFG walks, word starts and generated programs")
	seconds := fs.Float64("seconds", 20, "measured seconds per run")
	traceMode := fs.Int("trace", -1, "0: end-to-end metrics; 1: per-layer metrics; -1: both")
	runs := fs.Int("runs", 1, "rounds over the workloads; round r uses seed+r")
	out := fs.String("out", "", "write the environment and every run to this JSON file")
	cmp := fs.Bool("compare", false, "compare two -out files (parent, then change) under the BENCHMARK.json bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	sp, err := loadSpec(specPath)
	if err != nil {
		fmt.Fprintln(stderr, "apcc-bench:", err)
		return 1
	}
	if *cmp {
		return runCompare(fs.Args(), sp, stdout, stderr)
	}
	if fs.NArg() > 0 || *seconds <= 0 || *runs < 1 || *traceMode < -1 || *traceMode > 1 {
		fs.Usage()
		return 2
	}
	ws := allWorkloads
	if *name != "" {
		w, err := workloadByName(*name)
		if err != nil {
			fmt.Fprintln(stderr, "apcc-bench:", err)
			return 2
		}
		ws = []*workload{w}
	}

	host0, err := readHostStat()
	if err != nil {
		fmt.Fprintln(stderr, "apcc-bench:", err)
		return 1
	}
	file := &resultFile{Env: readEnv()}
	file.Env.Loadavg1, file.Env.Seconds, file.Env.Trace = host0.load1, *seconds, *traceMode
	p := planFor(*traceMode, time.Duration(*seconds*float64(time.Second)))
	correct := true
	for r := 0; r < *runs; r++ {
		for _, w := range ws {
			fmt.Fprintf(stderr, "apcc-bench: %s seed %d\n", w.name, *seed+int64(r))
			res, err := runWorkload(w, *seed+int64(r), p)
			if err != nil {
				fmt.Fprintln(stderr, "apcc-bench:", err)
				return 1
			}
			printRun(stdout, sp, res)
			correct = correct && res.Correct
			file.Runs = append(file.Runs, res)
		}
	}
	if host1, err := readHostStat(); err == nil {
		file.Env.StealFrac = host1.stealFrac(host0)
	}
	if *out != "" {
		data, err := json.MarshalIndent(file, "", "  ")
		if err == nil {
			err = os.WriteFile(*out, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(stderr, "apcc-bench:", err)
			return 1
		}
	}
	if len(file.Runs) > 1 {
		printSummary(stdout, sp, file)
	} else {
		line, err := contractLine(sp, file.Runs[0], *traceMode)
		if err != nil {
			fmt.Fprintln(stderr, "apcc-bench:", err)
			return 1
		}
		fmt.Fprintln(stdout, line)
	}
	if !correct {
		fmt.Fprintln(stderr, "apcc-bench: wrong or failed responses, or resilience events; see above")
		return 1
	}
	return 0
}

func runCompare(args []string, sp *spec, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: apcc-bench -compare parent.json change.json")
		return 2
	}
	a, err := readResults(args[0])
	if err != nil {
		fmt.Fprintln(stderr, "apcc-bench:", err)
		return 1
	}
	b, err := readResults(args[1])
	if err != nil {
		fmt.Fprintln(stderr, "apcc-bench:", err)
		return 1
	}
	if compare(stdout, sp, a, b) {
		return 1
	}
	return 0
}
