// Command cfgdump inspects the control flow graph of a workload or an
// ERI32 assembly file: a text summary, the analyses (dominators, loops,
// the k-edge look-ahead) and Graphviz DOT export.
//
// Usage:
//
//	cfgdump -workload fft                 # text summary
//	cfgdump -workload fft -dot            # DOT on stdout
//	cfgdump -asm prog.s -within B0:3      # blocks ≤3 edges ahead of B0's exit
//
// -within prints a row of the pre-decompression look-ahead table
// (cfg.Lookahead): the blocks at most K edges ahead of the block's
// exit, nearest first, with each one's distance. A block that a cycle
// brings back is listed at the cycle's length.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"apbcc/internal/program"
	"apbcc/internal/report"
	"apbcc/internal/workloads"
)

func main() {
	var (
		workload = flag.String("workload", "", "suite workload name")
		asmFile  = flag.String("asm", "", "ERI32 assembly file to analyze instead")
		dot      = flag.Bool("dot", false, "emit Graphviz DOT")
		within   = flag.String("within", "", "LABEL:K — print blocks at most K edges ahead of LABEL's exit")
	)
	flag.Parse()

	var p *program.Program
	switch {
	case *workload != "":
		w, err := workloads.ByName(*workload)
		if err != nil {
			fatal(err)
		}
		p = w.Program
	case *asmFile != "":
		src, err := os.ReadFile(*asmFile)
		if err != nil {
			fatal(err)
		}
		p2, err := program.FromAssembly(*asmFile, string(src))
		if err != nil {
			fatal(err)
		}
		p = p2
	default:
		fatal(fmt.Errorf("one of -workload or -asm is required"))
	}
	g := p.Graph

	if *dot {
		fmt.Print(g.DOT(p.Name))
		return
	}
	if *within != "" {
		parts := strings.SplitN(*within, ":", 2)
		if len(parts) != 2 {
			fatal(fmt.Errorf("-within wants LABEL:K"))
		}
		b, ok := g.BlockByLabel(parts[0])
		if !ok {
			fatal(fmt.Errorf("no block labeled %q", parts[0]))
		}
		k, err := strconv.Atoi(parts[1])
		if err != nil {
			fatal(err)
		}
		ids, dist := g.Lookahead(k).Row(b.ID)
		tb := report.NewTable(fmt.Sprintf("blocks at most %d edges from %s", k, b), "block", "distance", "bytes")
		for i, id := range ids {
			tb.AddRow(g.Block(id).String(), dist[i], g.Block(id).Bytes())
		}
		fmt.Print(tb)
		return
	}

	fmt.Printf("program %s: %d blocks, %d words (%d bytes), entry %s\n\n",
		p.Name, g.NumBlocks(), g.TotalWords(), g.TotalBytes(), g.Block(g.Entry()))
	depth := g.LoopDepths()
	tb := report.NewTable("blocks", "block", "func", "words", "loop-depth", "successors")
	for _, b := range g.Blocks() {
		var succs []string
		for _, e := range g.Succs(b.ID) {
			succs = append(succs, fmt.Sprintf("%s(%s,%.2f)", g.Block(e.To), e.Kind, e.Prob))
		}
		tb.AddRow(b.String(), b.Func, b.Words(), depth[b.ID], strings.Join(succs, " "))
	}
	fmt.Print(tb)

	loops := g.NaturalLoops()
	fmt.Printf("\n%d natural loops\n", len(loops))
	for _, l := range loops {
		var body []string
		for _, id := range l.Body {
			body = append(body, g.Block(id).String())
		}
		fmt.Printf("  header %s, body {%s}\n", g.Block(l.Header), strings.Join(body, " "))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "cfgdump:", err)
	os.Exit(1)
}
