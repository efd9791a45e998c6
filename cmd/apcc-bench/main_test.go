package main

import (
	"bytes"
	"encoding/json"
	"math"
	"slices"
	"strings"
	"testing"
	"time"
)

const testSpec = "../../BENCHMARK.json"

// TestShortRuns runs every workload briefly with every phase and checks
// that it emits exactly the metrics BENCHMARK.json declares, each a
// finite number, with no failed or wrong response, no resilience
// event, and server stages that account for most of the server's own
// request time.
func TestShortRuns(t *testing.T) {
	t.Setenv("TMPDIR", t.TempDir())
	sp, err := loadSpec(testSpec)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range sp.Workloads {
		names = append(names, w.Name)
	}
	for _, w := range allWorkloads {
		if !slices.Contains(names, w.name) {
			t.Errorf("workload %s is not in BENCHMARK.json", w.name)
		}
	}
	declared := map[string]bool{}
	for _, ms := range sp.metrics(-1) {
		declared[ms.Name] = true
	}
	p := plan{setups: 2, warmup: 50 * time.Millisecond, untraced: 300 * time.Millisecond,
		traced: 300 * time.Millisecond, direct: 100 * time.Millisecond}
	for _, w := range allWorkloads {
		t.Run(w.name, func(t *testing.T) {
			res, err := runWorkload(w, 1, p)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("correct=%v attempted=%d failed=%d errors=%v", res.Correct, res.Attempted, res.Failed, res.Errors)
			}
			if _, err := contractLine(sp, res, -1); err != nil {
				t.Fatal(err)
			}
			for name := range res.Metrics {
				if !declared[name] {
					t.Errorf("metric %s is not declared in BENCHMARK.json", name)
				}
			}
			for _, ms := range sp.EndToEnd {
				if res.Metrics[ms.Name] <= 0 {
					t.Errorf("end-to-end metric %s = %v, want > 0", ms.Name, res.Metrics[ms.Name])
				}
			}
			// The server's spans cover 0.90-0.97 of its request time in
			// these runs (less under -race); the check is for broken
			// attribution, not for scheduling noise at the 0.9 edge.
			if f := res.Metrics["stage.sum_frac"]; f < 0.8 {
				t.Errorf("stage.sum_frac = %.3f, want >= 0.8", f)
			}
		})
	}
}

// TestContractLine drives the command as the harness does and checks
// its last line: one JSON object with exactly the end-to-end metrics.
func TestContractLine(t *testing.T) {
	t.Setenv("TMPDIR", t.TempDir())
	sp, err := loadSpec(testSpec)
	if err != nil {
		t.Fatal(err)
	}
	t.Chdir("../..")
	var stdout, stderr bytes.Buffer
	code := run([]string{"--workload", "hot-block", "--seed", "2", "--seconds", "0.3", "--trace", "0"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var got struct {
		Correct           bool
		Attempted, Failed int64
		Metrics           map[string]struct {
			Value float64
			Unit  string
		}
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &got); err != nil {
		t.Fatal(err)
	}
	if !got.Correct || got.Attempted < 1 || got.Failed != 0 || len(got.Metrics) != len(sp.EndToEnd) {
		t.Fatalf("last line %s", lines[len(lines)-1])
	}
	for _, ms := range sp.EndToEnd {
		if m := got.Metrics[ms.Name]; m.Unit != ms.Unit || m.Value <= 0 || math.IsInf(m.Value, 0) {
			t.Errorf("%s = %+v", ms.Name, m)
		}
	}
}

// TestSummarizeMatchesPython pins the quartiles to Python's
// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25].
func TestSummarizeMatchesPython(t *testing.T) {
	d := summarize([]float64{7, 1, 2, 3, 4, 5, 6, 8, 9, 10})
	if d.q1 != 2.75 || d.median != 5.5 || d.q3 != 8.25 {
		t.Fatalf("got q1=%v median=%v q3=%v", d.q1, d.median, d.q3)
	}
}

func TestCompareVerdicts(t *testing.T) {
	sp := &spec{EndToEnd: []metricSpec{
		{Name: "req_per_s", Better: "higher", Bound: 0.1},
		{Name: "p99_us", Better: "lower", Bound: 0.1},
		{Name: "setup_s", Better: "lower", Bound: 0.25},
	}}
	file := func(reqs, p99s, setups []float64) *resultFile {
		f := &resultFile{}
		for i := range reqs {
			f.Runs = append(f.Runs, &runResult{Workload: "hot-block", Metrics: map[string]float64{
				"req_per_s": reqs[i], "p99_us": p99s[i], "setup_s": setups[i]}})
		}
		return f
	}
	a := file([]float64{100, 101, 99, 100, 100}, []float64{50, 51, 49, 50, 50}, []float64{1, 1, 1, 1, 1})
	// Throughput down 20% (regressed), p99 spread far wider than its
	// bound (unresolved), set-up unchanged (ok).
	b := file([]float64{80, 81, 79, 80, 80}, []float64{30, 70, 40, 60, 52}, []float64{1, 1.01, 0.99, 1, 1})
	var out bytes.Buffer
	if !compare(&out, sp, a, b) {
		t.Fatal("no regression reported")
	}
	verdicts := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(out.String()), "\n")[1:] {
		f := strings.Fields(line)
		verdicts[f[1]] = f[len(f)-1]
	}
	want := map[string]string{"req_per_s": "regressed", "p99_us": "unresolved", "setup_s": "ok"}
	for m, v := range want {
		if verdicts[m] != v {
			t.Errorf("%s: verdict %q, want %q\n%s", m, verdicts[m], v, out.String())
		}
	}
	out.Reset()
	if compare(&out, sp, a, a) {
		t.Fatalf("a against itself regressed:\n%s", out.String())
	}
}
