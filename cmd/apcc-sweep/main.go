// Command apcc-sweep regenerates the reproduction's experiment tables
// (the experiment index in README.md).
//
// Usage:
//
//	apcc-sweep                 # run every experiment
//	apcc-sweep -exp f3,e1      # run a subset
//	apcc-sweep -csv            # emit CSV instead of aligned tables
//	apcc-sweep -steps 5000     # shorter traces (faster, noisier)
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"apbcc/internal/bench"
	"apbcc/internal/report"
)

func main() {
	var (
		exps  = flag.String("exp", "f3,e1,e2,e3,e3b,e4,e4b,e5,e6,e7,e8,e9,e10", "comma-separated experiment ids")
		csv   = flag.Bool("csv", false, "emit CSV")
		steps = flag.Int("steps", bench.DefaultSteps, "trace length per cell")
		kc    = flag.Int("kc", 4, "default compress-k")
		kd    = flag.Int("kd", 2, "default decompress-k")
	)
	flag.Parse()

	ks := []int{1, 2, 4, 8, 16}
	harnesses := map[string]func() (*report.Table, error){
		"f3":  func() (*report.Table, error) { return bench.DesignSpace(*kc, *kd, *steps) },
		"e1":  func() (*report.Table, error) { return bench.MemoryVsK(ks, *steps) },
		"e2":  func() (*report.Table, error) { return bench.OverheadVsK(ks, *kd, *steps) },
		"e3":  func() (*report.Table, error) { return bench.Codecs(*kc, *steps) },
		"e3b": func() (*report.Table, error) { return bench.CodecArbitration([]float64{0, 0.05, 0.15, 0.5}) },
		"e4":  func() (*report.Table, error) { return bench.Policies(*kc, *kd, *steps) },
		"e4b": func() (*report.Table, error) { return bench.Budget(*kc, *steps) },
		"e5":  func() (*report.Table, error) { return bench.Granularity(*kc, *steps) },
		"e6":  func() (*report.Table, error) { return bench.Predictors(*kc, *kd, *steps) },
		"e7":  func() (*report.Table, error) { return bench.CounterSemantics(*kc, *kd, *steps) },
		"e8":  func() (*report.Table, error) { return bench.Writeback(*kc, *steps) },
		"e9":  func() (*report.Table, error) { return bench.Fragmentation(2, *steps) },
		"e10": func() (*report.Table, error) { return bench.SharedPool(*kc, *steps) },
	}
	order := strings.Split(*exps, ",")
	for _, id := range order {
		id = strings.TrimSpace(strings.ToLower(id))
		h, ok := harnesses[id]
		if !ok {
			fmt.Fprintf(os.Stderr, "apcc-sweep: unknown experiment %q\n", id)
			os.Exit(1)
		}
		tb, err := h()
		if err != nil {
			fmt.Fprintf(os.Stderr, "apcc-sweep: %s: %v\n", id, err)
			os.Exit(1)
		}
		if *csv {
			fmt.Print(tb.CSV())
		} else {
			fmt.Print(tb)
		}
		fmt.Println()
	}
}
