package kernels

import (
	"bytes"
	"testing"

	"apbcc/internal/compress"
	"apbcc/internal/core"
	"apbcc/internal/machine"
	"apbcc/internal/trace"
)

func TestKernelsRunPlain(t *testing.T) {
	for _, k := range All() {
		k := k
		t.Run(k.Name, func(t *testing.T) {
			p, err := k.Program()
			if err != nil {
				t.Fatal(err)
			}
			res, err := machine.RunPlain(p, machine.Config{Init: k.Init})
			if err != nil {
				t.Fatal(err)
			}
			if err := k.Check(res); err != nil {
				t.Fatal(err)
			}
			t.Logf("%s: %d steps, out=%v", k.Name, res.Steps, res.OutInts)
		})
	}
}

// TestKernelsUnderCompression is the reproduction's strongest
// correctness statement: every kernel, under every strategy and several
// k values, computes bit-identical results to the bare interpreter
// while the compression runtime manages its code memory from the live
// access pattern.
func TestKernelsUnderCompression(t *testing.T) {
	for _, k := range All() {
		k := k
		p, err := k.Program()
		if err != nil {
			t.Fatal(err)
		}
		ref, err := machine.RunPlain(p, machine.Config{Init: k.Init})
		if err != nil {
			t.Fatal(err)
		}
		code, err := p.CodeBytes()
		if err != nil {
			t.Fatal(err)
		}
		for _, codecName := range []string{"dict", "lzss", "cpack", "bdi"} {
			codec, err := compress.New(codecName, code)
			if err != nil {
				t.Fatal(err)
			}
			configs := map[string]core.Config{
				"on-demand-k1":  {Codec: codec, CompressK: 1},
				"on-demand-k4":  {Codec: codec, CompressK: 4},
				"pre-all-k4":    {Codec: codec, CompressK: 4, Strategy: core.PreAll, DecompressK: 2},
				"pre-single-k4": {Codec: codec, CompressK: 4, Strategy: core.PreSingle, DecompressK: 2, Predictor: trace.NewMarkov(p.Graph)},
			}
			for cname, conf := range configs {
				t.Run(k.Name+"/"+codecName+"/"+cname, func(t *testing.T) {
					res, err := machine.Run(p, machine.Config{Core: conf, Init: k.Init})
					if err != nil {
						t.Fatal(err)
					}
					if err := k.Check(res); err != nil {
						t.Fatal(err)
					}
					if res.Steps != ref.Steps {
						t.Errorf("steps = %d, plain = %d", res.Steps, ref.Steps)
					}
					if len(res.OutInts) != len(ref.OutInts) {
						t.Fatalf("outputs differ: %v vs %v", res.OutInts, ref.OutInts)
					}
					for i := range res.OutInts {
						if res.OutInts[i] != ref.OutInts[i] {
							t.Errorf("out[%d] = %d, plain %d", i, res.OutInts[i], ref.OutInts[i])
						}
					}
					if !bytes.Equal(res.Data, ref.Data) {
						t.Error("final data memory differs from plain run")
					}
					if res.Regs != ref.Regs {
						t.Error("final registers differ from plain run")
					}
					// The runtime must actually have done something.
					if res.Core.Exceptions == 0 {
						t.Error("no exceptions: runtime inactive")
					}
					if res.Cycles <= res.BaseCycles {
						t.Error("no overhead charged")
					}
				})
			}
		}
	}
}

// TestCPackBeatsRLEOnKernelSuite pins cpack's ratio on the real kernels
// rather than a synthetic image: cpack (trained per kernel, as the pack
// pipeline trains per program) must compress every kernel's code
// tighter than identity, and so the suite in aggregate. The seed
// dictionary ships out-of-band like dict's table, so — per the E3
// convention — model bytes are not counted in the ratio.
func TestCPackBeatsRLEOnKernelSuite(t *testing.T) {
	totalCPack, totalOrig := 0, 0
	for _, k := range All() {
		p, err := k.Program()
		if err != nil {
			t.Fatal(err)
		}
		code, err := p.CodeBytes()
		if err != nil {
			t.Fatal(err)
		}
		cp, err := compress.New("cpack", code)
		if err != nil {
			t.Fatal(err)
		}
		ccomp, err := cp.CompressAppend(nil, code)
		if err != nil {
			t.Fatal(err)
		}
		cr := compress.Ratio(len(code), len(ccomp))
		t.Logf("%s: %d B, cpack %.3f", k.Name, len(code), cr)
		if cr >= 1 {
			t.Errorf("%s: cpack ratio %.3f not better than identity", k.Name, cr)
		}
		totalCPack += len(ccomp)
		totalOrig += len(code)
	}
	if totalCPack >= totalOrig {
		t.Errorf("suite aggregate: cpack %d B not smaller than the %d B of code", totalCPack, totalOrig)
	}
}

// TestLiveAccessPatternMetrics verifies the machine produces sensible
// compression metrics from real executions: the CRC kernel's hot loop
// dominates, so large k holds it resident.
func TestLiveAccessPatternMetrics(t *testing.T) {
	k := CRC32()
	p, err := k.Program()
	if err != nil {
		t.Fatal(err)
	}
	code, err := p.CodeBytes()
	if err != nil {
		t.Fatal(err)
	}
	codec, err := compress.New("dict", code)
	if err != nil {
		t.Fatal(err)
	}
	run := func(kc int) *machine.Result {
		res, err := machine.Run(p, machine.Config{
			Core: core.Config{Codec: codec, CompressK: kc},
			Init: k.Init,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	k1, k64 := run(1), run(64)
	if k1.Core.DemandDecompresses <= k64.Core.DemandDecompresses {
		t.Errorf("k=1 demand %d <= k=64 demand %d",
			k1.Core.DemandDecompresses, k64.Core.DemandDecompresses)
	}
	if k1.AvgResident >= k64.AvgResident {
		t.Errorf("k=1 avg resident %.0f >= k=64 %.0f", k1.AvgResident, k64.AvgResident)
	}
	if k1.Overhead() <= k64.Overhead() {
		t.Errorf("k=1 overhead %.3f <= k=64 overhead %.3f", k1.Overhead(), k64.Overhead())
	}
	// The bit loop executes ~8 times per byte; the block entry count
	// must reflect the real pattern (thousands of entries).
	if k1.BlockEntries < 1000 {
		t.Errorf("block entries = %d, want thousands from the live pattern", k1.BlockEntries)
	}
}

// TestKernelColdPathsStayCompressed: the error-handling blocks never
// execute in a valid run, so with on-demand decompression they are
// never decompressed — the memory the scheme is designed to save.
func TestKernelColdPathsStayCompressed(t *testing.T) {
	for _, k := range All() {
		k := k
		t.Run(k.Name, func(t *testing.T) {
			p, err := k.Program()
			if err != nil {
				t.Fatal(err)
			}
			code, err := p.CodeBytes()
			if err != nil {
				t.Fatal(err)
			}
			codec, err := compress.New("dict", code)
			if err != nil {
				t.Fatal(err)
			}
			res, err := machine.Run(p, machine.Config{
				Core: core.Config{Codec: codec, CompressK: 1 << 20},
				Init: k.Init,
			})
			if err != nil {
				t.Fatal(err)
			}
			// With an effectively infinite k nothing is ever deleted;
			// peak resident = compressed area + every block that
			// actually executed. The cold blocks keep the peak below
			// compressed + uncompressed.
			if res.PeakResident >= res.CompressedSize+res.UncompressedSize {
				t.Errorf("peak %d suggests every block (incl. cold) was decompressed", res.PeakResident)
			}
			if res.Core.Deletes != 0 {
				t.Error("deletes with infinite k")
			}
		})
	}
}
