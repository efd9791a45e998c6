// Command apcc-pack builds and inspects deployable compressed-image
// containers (the pack format).
//
// Usage:
//
//	apcc-pack -workload fft -o fft.apcc            # pack a suite workload
//	apcc-pack -asm prog.s -codec lzss -o prog.apcc # pack assembled source
//	apcc-pack -info fft.apcc                       # inspect a container
//	apcc-pack -verify fft.apcc                     # unpack + validate
//
// -info and -verify read format v3 only, the one format the packer
// writes.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"apbcc/internal/compress"
	"apbcc/internal/pack"
	"apbcc/internal/program"
	"apbcc/internal/report"
	"apbcc/internal/store"
	"apbcc/internal/workloads"
)

func main() {
	var (
		workload  = flag.String("workload", "", "suite workload to pack")
		asmFile   = flag.String("asm", "", "ERI32 assembly file to pack")
		codecName = flag.String("codec", "dict", "payload codec: "+strings.Join(compress.Names(), " | "))
		out       = flag.String("o", "", "output container path")
		info      = flag.String("info", "", "container to summarize")
		verify    = flag.String("verify", "", "container to unpack and validate")
		storeDir  = flag.String("store", "", "also persist the container to this content-addressed store\n(same layout apcc-serve -store consumes for warm restarts)")
	)
	flag.Parse()

	switch {
	case *info != "":
		p, codec, inf, err := load(*info)
		if err != nil {
			fatal(err)
		}
		tb := report.NewTable("container "+*info, "field", "value")
		tb.AddRow("format version", inf.Version)
		tb.AddRow("codec", codec.Name())
		tb.AddRow("blocks", inf.Blocks)
		tb.AddRow("plain image", report.KB(inf.PlainBytes))
		tb.AddRow("compressed payloads", report.KB(inf.CompressedBytes))
		tb.AddRow("payload ratio", report.Pct(float64(inf.CompressedBytes)/float64(inf.PlainBytes)))
		tb.AddRow("container size", report.KB(inf.ContainerBytes))
		if inf.GroupWords > 0 {
			tb.AddRow("group words", inf.GroupWords)
			tb.AddRow("word groups", inf.Groups)
		} else {
			tb.AddRow("group words", "none (no sub-block random access)")
		}
		tb.AddRow("entry block", p.Graph.Block(p.Graph.Entry()).String())
		fmt.Print(tb)
	case *verify != "":
		p, _, _, err := load(*verify)
		if err != nil {
			fatal(err)
		}
		if err := p.Validate(); err != nil {
			fatal(err)
		}
		fmt.Printf("%s: OK (%d blocks, %d bytes of code)\n", *verify, p.Graph.NumBlocks(), p.TotalBytes())
	default:
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
			fatal(fmt.Errorf("one of -workload, -asm, -info, -verify is required"))
		}
		if *out == "" && *storeDir == "" {
			fatal(fmt.Errorf("-o or -store is required when packing"))
		}
		data, err := pack.Build(p, *codecName)
		if err != nil {
			fatal(err)
		}
		if *out != "" {
			if err := os.WriteFile(*out, data, 0o644); err != nil {
				fatal(err)
			}
		}
		if *storeDir != "" {
			st, err := store.Open(*storeDir)
			if err != nil {
				fatal(err)
			}
			key, err := st.Put(data)
			if err != nil {
				fatal(err)
			}
			// The same (name, codec) binding apcc-serve resolves on a
			// warm restart: pre-packing a corpus here makes every first
			// request a store restore, never a packer run.
			if err := st.PutRef(store.RefName(p.Name, *codecName), key); err != nil {
				fatal(err)
			}
			fmt.Printf("stored %s as %s\n", p.Name, key[:12])
		}
		fmt.Printf("packed %s: %d bytes of code -> %d-byte container (%s, format v%d)\n",
			p.Name, p.TotalBytes(), len(data), *codecName, pack.Version)
	}
}

func load(path string) (*program.Program, compress.Codec, *pack.Info, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, nil, err
	}
	return pack.Unpack(path, data)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "apcc-pack:", err)
	os.Exit(1)
}
