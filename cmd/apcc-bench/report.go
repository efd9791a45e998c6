package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
)

// specPath is BENCHMARK.json, relative to the root of the checkout the
// benchmark runs in.
const specPath = "BENCHMARK.json"

// spec is BENCHMARK.json: the single list of workloads and metrics,
// with each metric's unit, direction and, for end-to-end metrics, the
// share of the parent's median by which it may worsen.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadSpec(path string) (*spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// metrics returns the metrics a -trace mode reports.
func (s *spec) metrics(traceMode int) []metricSpec {
	switch traceMode {
	case 0:
		return s.EndToEnd
	case 1:
		return s.PerLayer
	}
	return append(slices.Clone(s.EndToEnd), s.PerLayer...)
}

// envRecord is the host and build a result file was measured on.
type envRecord struct {
	Commit     string  `json:"commit"`
	Go         string  `json:"go"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"num_cpu"`
	CPU        string  `json:"cpu"`
	Loadavg1   float64 `json:"loadavg1"`   // at the start
	StealFrac  float64 `json:"steal_frac"` // over the whole invocation
	Seconds    float64 `json:"seconds"`
	Trace      int     `json:"trace"`
}

func readEnv() envRecord {
	e := envRecord{Commit: "unknown", Go: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU()}
	if bi, ok := debug.ReadBuildInfo(); ok {
		dirty := ""
		for _, s := range bi.Settings {
			switch {
			case s.Key == "vcs.revision":
				e.Commit = s.Value
			case s.Key == "vcs.modified" && s.Value == "true":
				dirty = "+dirty"
			}
		}
		e.Commit += dirty
	}
	if info, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(info), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				e.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return e
}

// resultFile is what -out writes and -compare reads.
type resultFile struct {
	Env  envRecord    `json:"env"`
	Runs []*runResult `json:"runs"`
}

func readResults(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// printRun writes one run's metrics, one per line with its unit.
func printRun(w io.Writer, sp *spec, res *runResult) {
	fmt.Fprintf(w, "%s seed=%d correct=%v attempted=%d failed=%d\n",
		res.Workload, res.Seed, res.Correct, res.Attempted, res.Failed)
	for _, e := range res.Errors {
		fmt.Fprintf(w, "  error: %s\n", e)
	}
	for _, ms := range sp.metrics(-1) {
		if v, ok := res.Metrics[ms.Name]; ok {
			fmt.Fprintf(w, "  %-34s %14.4f %s\n", ms.Name, v, ms.Unit)
		}
	}
}

// contractLine is the last line of a single run: the metrics the -trace
// mode reports, each with its unit. It fails if the run lacks one or
// measured it as something other than a finite number.
func contractLine(sp *spec, res *runResult, traceMode int) (string, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	for _, ms := range sp.metrics(traceMode) {
		v, ok := res.Metrics[ms.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return "", fmt.Errorf("metric %s: missing or not finite (%v)", ms.Name, v)
		}
		metrics[ms.Name] = value{v, ms.Unit}
	}
	b, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, metrics})
	return string(b), err
}

// dist is the median and quartiles of one metric over several runs.
type dist struct{ median, q1, q3, min, max float64 }

// summarize computes the median and the quartiles the way Python's
// statistics.quantiles(values, n=4) does (its default exclusive
// method), so spreads match what other tools report for the same runs.
func summarize(v []float64) dist {
	s := slices.Clone(v)
	slices.Sort(s)
	d := dist{median: median(s), q1: s[0], q3: s[0], min: s[0], max: s[len(s)-1]}
	if len(s) < 2 {
		return d
	}
	q := func(i int) float64 {
		m := len(s) + 1
		j := min(max(i*m/4, 1), len(s)-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	d.q1, d.q3 = q(1), q(3)
	return d
}

// spread is the interquartile distance as a share of the median.
func (d dist) spread() float64 { return fratio(d.q3-d.q1, math.Abs(d.median)) }

// values collects one metric of one workload over a result file's runs.
func (f *resultFile) values(workload, metric string) []float64 {
	var out []float64
	for _, r := range f.Runs {
		if v, ok := r.Metrics[metric]; ok && r.Workload == workload {
			out = append(out, v)
		}
	}
	return out
}

// workloads lists the file's workloads in the benchmark's order.
func (f *resultFile) workloads() []string {
	var out []string
	for _, w := range allWorkloads {
		if slices.ContainsFunc(f.Runs, func(r *runResult) bool { return r.Workload == w.name }) {
			out = append(out, w.name)
		}
	}
	return out
}

// printSummary writes each metric's median, quartiles and spread per
// workload.
func printSummary(w io.Writer, sp *spec, f *resultFile) {
	fmt.Fprintf(w, "%-10s %-34s %14s %14s %14s %8s %s\n", "workload", "metric", "median", "q1", "q3", "spread", "unit")
	for _, wl := range f.workloads() {
		for _, ms := range sp.metrics(-1) {
			v := f.values(wl, ms.Name)
			if len(v) == 0 {
				continue
			}
			d := summarize(v)
			fmt.Fprintf(w, "%-10s %-34s %14.4f %14.4f %14.4f %7.2f%% %s\n",
				wl, ms.Name, d.median, d.q1, d.q3, 100*d.spread(), ms.Unit)
		}
	}
}

// compare applies the end-to-end bounds to a parent (a) and a change
// (b): a metric regressed when b's median is worse than a's by more
// than its bound; it is unresolved when either side's quartile spread
// exceeds the bound, unless every run of b beats every run of a. It
// reports whether anything regressed.
func compare(w io.Writer, sp *spec, a, b *resultFile) bool {
	regressed := false
	fmt.Fprintf(w, "%-10s %-16s %14s %14s %9s %7s %8s  %s\n", "workload", "metric", "a median", "b median", "worse", "bound", "spread", "verdict")
	for _, wl := range a.workloads() {
		for _, ms := range sp.EndToEnd {
			va, vb := a.values(wl, ms.Name), b.values(wl, ms.Name)
			if len(va) == 0 || len(vb) == 0 {
				fmt.Fprintf(w, "%-10s %-16s %s\n", wl, ms.Name, "missing")
				continue
			}
			da, db := summarize(va), summarize(vb)
			worse := fratio(db.median-da.median, da.median)
			allBetter := db.max < da.min
			if ms.Better == "higher" {
				worse, allBetter = -worse, db.min > da.max
			}
			spread := max(da.spread(), db.spread())
			verdict := "ok"
			switch {
			case worse > ms.Bound:
				verdict = "regressed"
				regressed = true
			case spread > ms.Bound && !allBetter:
				verdict = "unresolved"
			}
			fmt.Fprintf(w, "%-10s %-16s %14.4f %14.4f %8.2f%% %6.1f%% %7.2f%%  %s\n",
				wl, ms.Name, da.median, db.median, 100*worse, 100*ms.Bound, 100*spread, verdict)
		}
	}
	return regressed
}
