package pack

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
	"testing/quick"
	"unsafe"

	"apbcc/internal/compress"
	"apbcc/internal/core"
	"apbcc/internal/kernels"
	"apbcc/internal/machine"
	"apbcc/internal/program"
	"apbcc/internal/sim"
	"apbcc/internal/workloads"
)

// packWorkload packs a suite workload with a codec trained on its code.
func packWorkload(t testing.TB, name, codecName string) ([]byte, *workloads.Workload) {
	t.Helper()
	w, err := workloads.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	code, err := w.Program.CodeBytes()
	if err != nil {
		t.Fatal(err)
	}
	codec, err := compress.New(codecName, code)
	if err != nil {
		t.Fatal(err)
	}
	data, err := Pack(w.Program, codec)
	if err != nil {
		t.Fatal(err)
	}
	return data, w
}

func TestPackUnpackRoundTrip(t *testing.T) {
	for _, codecName := range compress.Names() {
		codecName := codecName
		t.Run(codecName, func(t *testing.T) {
			data, w := packWorkload(t, "fft", codecName)
			p, codec, info, err := Unpack("fft", data)
			if err != nil {
				t.Fatal(err)
			}
			if codec.Name() != codecName {
				t.Errorf("codec = %s", codec.Name())
			}
			// The reconstructed instruction stream must be identical.
			if len(p.Ins) != len(w.Program.Ins) {
				t.Fatalf("ins = %d, want %d", len(p.Ins), len(w.Program.Ins))
			}
			for i := range p.Ins {
				if p.Ins[i] != w.Program.Ins[i] {
					t.Fatalf("instruction %d differs", i)
				}
			}
			// The CFG must match: blocks, labels, functions, edges.
			if p.Graph.NumBlocks() != w.Program.Graph.NumBlocks() {
				t.Fatal("block count differs")
			}
			for _, b := range w.Program.Graph.Blocks() {
				nb := p.Graph.Block(b.ID)
				if nb.Label != b.Label || nb.Func != b.Func || nb.Words() != b.Words() {
					t.Errorf("block %d metadata differs", b.ID)
				}
				if len(p.Graph.Succs(b.ID)) != len(w.Program.Graph.Succs(b.ID)) {
					t.Errorf("block %d out-degree differs", b.ID)
				}
			}
			if info.PlainBytes != w.Program.TotalBytes() {
				t.Errorf("info.PlainBytes = %d", info.PlainBytes)
			}
			if codecName == "dict" && info.CompressedBytes >= info.PlainBytes {
				t.Error("dict payloads did not compress")
			}
		})
	}
}

// TestUnpackedProgramRuns is the deployment story: pack a real kernel,
// unpack it elsewhere, run it under the compression runtime with the
// unpacked codec, and get the right answer.
func TestUnpackedProgramRuns(t *testing.T) {
	k := kernels.CRC32()
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
	data, err := Pack(p, codec)
	if err != nil {
		t.Fatal(err)
	}
	p2, codec2, _, err := Unpack(k.Name, data)
	if err != nil {
		t.Fatal(err)
	}
	res, err := machine.Run(p2, machine.Config{
		Core: core.Config{Codec: codec2, CompressK: 8},
		Init: k.Init,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := k.Check(res); err != nil {
		t.Fatal(err)
	}
}

// TestUnpackedSimulationMatches: simulating the unpacked program gives
// the same metrics as the original (everything relevant round-trips).
func TestUnpackedSimulationMatches(t *testing.T) {
	data, w := packWorkload(t, "jpegdct", "dict")
	p2, codec2, _, err := Unpack("jpegdct", data)
	if err != nil {
		t.Fatal(err)
	}
	run := func(pr interface {
		CodeBytes() ([]byte, error)
	}, m *core.Manager) *sim.Result {
		tr, err := w.Trace()
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.Run(m, tr, sim.DefaultCosts())
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	code, _ := w.Program.CodeBytes()
	codec1, _ := compress.New("dict", code)
	m1, err := core.NewManager(w.Program, core.Config{Codec: codec1, CompressK: 4})
	if err != nil {
		t.Fatal(err)
	}
	m2, err := core.NewManager(p2, core.Config{Codec: codec2, CompressK: 4})
	if err != nil {
		t.Fatal(err)
	}
	r1 := run(w.Program, m1)
	r2 := run(p2, m2)
	if r1.Cycles != r2.Cycles || r1.PeakResident != r2.PeakResident || r1.Core != r2.Core {
		t.Errorf("unpacked simulation diverged: %d vs %d cycles", r1.Cycles, r2.Cycles)
	}
}

func TestUnpackRejectsCorruption(t *testing.T) {
	data, _ := packWorkload(t, "crc32", "dict")
	t.Run("magic", func(t *testing.T) {
		bad := append([]byte("NOPE"), data[4:]...)
		if _, _, _, err := Unpack("x", bad); !errors.Is(err, ErrBadMagic) {
			t.Errorf("err = %v", err)
		}
	})
	t.Run("truncated", func(t *testing.T) {
		for _, cut := range []int{5, 10, len(data) / 2, len(data) - 3} {
			if _, _, _, err := Unpack("x", data[:cut]); err == nil {
				t.Errorf("truncation at %d accepted", cut)
			}
		}
	})
	t.Run("single-byte-flips", func(t *testing.T) {
		// Flip every byte position in turn. Each flip must either be
		// rejected (structure, codec or checksum) or — when it only
		// touches metadata like a label — leave the reconstructed
		// instruction image byte-identical. A flip that silently
		// changes code is an integrity hole.
		orig, _, _, err := Unpack("x", data)
		if err != nil {
			t.Fatal(err)
		}
		want, err := orig.CodeBytes()
		if err != nil {
			t.Fatal(err)
		}
		for pos := 0; pos < len(data); pos++ {
			bad := bytes.Clone(data)
			bad[pos] ^= 0xff
			p, _, _, err := Unpack("x", bad)
			if err != nil {
				continue
			}
			got, err := p.CodeBytes()
			if err != nil {
				continue
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("flip at %d silently changed the code image", pos)
			}
		}
	})
}

func TestUnpackFuzzNeverPanics(t *testing.T) {
	data, _ := packWorkload(t, "crc32", "lzss")
	f := func(seed int64) bool {
		bad := bytes.Clone(data)
		// Deterministically flip a few bytes.
		for i := 0; i < 4; i++ {
			pos := int(uint64(seed+int64(i)*2654435761) % uint64(len(bad)))
			bad[pos] ^= byte(seed >> (8 * uint(i%8)))
		}
		// Must not panic; errors are fine, silent success is fine only
		// if the flips happened to be harmless.
		_, _, _, _ = Unpack("fuzz", bad)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestModelRoundTrip(t *testing.T) {
	data, _ := packWorkload(t, "sha", "huffman")
	if _, _, _, err := Unpack("sha", data); err != nil {
		t.Fatalf("huffman model round trip: %v", err)
	}
}

// TestPackExactSize: Pack returns its container at its exact size, so
// a server entry that keeps the container holds no spare capacity
// behind it. Checked for every suite program under every codec.
func TestPackExactSize(t *testing.T) {
	for _, name := range workloads.Names() {
		for _, codecName := range compress.Names() {
			data, _ := packWorkload(t, name, codecName)
			if cap(data) != len(data) {
				t.Errorf("%s/%s: cap %d, len %d", name, codecName, cap(data), len(data))
			}
		}
	}
}

// TestBuildMatchesPack: Build gives, byte for byte and at its exact
// size, the container Pack gives for the codec compress.New trains on
// the program's CodeBytes, for every suite and generated program under
// every codec. An unknown codec name fails with ErrUnknownCodec.
func TestBuildMatchesPack(t *testing.T) {
	var progs []*program.Program
	for _, name := range workloads.Names() {
		w, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		progs = append(progs, w.Program)
	}
	for _, src := range workloads.GeneratedAssembly(1, 16) {
		p, err := program.FromAssembly("gen", src)
		if err != nil {
			t.Fatal(err)
		}
		progs = append(progs, p)
	}
	for _, p := range progs {
		code, err := p.CodeBytes()
		if err != nil {
			t.Fatal(err)
		}
		for _, codecName := range compress.Names() {
			codec, err := compress.New(codecName, code)
			if err != nil {
				t.Fatal(err)
			}
			want, err := Pack(p, codec)
			if err != nil {
				t.Fatal(err)
			}
			got, err := Build(p, codecName)
			if err != nil {
				t.Fatalf("%s/%s: %v", p.Name, codecName, err)
			}
			if !bytes.Equal(got, want) || cap(got) != len(got) {
				t.Errorf("%s/%s: Build gives %d bytes (cap %d), Pack %d", p.Name, codecName, len(got), cap(got), len(want))
			}
		}
	}
	if _, err := Build(progs[0], "rle"); !errors.Is(err, compress.ErrUnknownCodec) {
		t.Errorf("unknown codec: %v, want ErrUnknownCodec", err)
	}
}

// TestParseHeader: a container's header parses on its own, from any
// prefix that holds it, to the fields ParseIndex gives; a registered
// codec's name is the registry's own string, which two parsed
// containers share; and a shorter prefix is corrupt.
func TestParseHeader(t *testing.T) {
	a, _ := packWorkload(t, "fft", "huffman")
	b, _ := packWorkload(t, "crc32", "huffman")
	idx, err := ParseIndex(a)
	if err != nil {
		t.Fatal(err)
	}
	// Magic, version, length-prefixed name and model, CRC.
	end := len(Magic) + 1 + 1 + len(idx.Codec) + len(binary.AppendUvarint(nil, uint64(len(idx.Model)))) + len(idx.Model) + 4
	h, err := ParseHeader(a[:end])
	if err != nil {
		t.Fatal(err)
	}
	if h.Codec != idx.Codec || !bytes.Equal(h.Model, idx.Model) || h.ImageCRC != idx.ImageCRC {
		t.Fatalf("header %s/%d B/%#x, index %s/%d B/%#x", h.Codec, len(h.Model), h.ImageCRC, idx.Codec, len(idx.Model), idx.ImageCRC)
	}
	if _, err := ParseHeader(a[:end-1]); !errors.Is(err, ErrCorrupt) {
		t.Errorf("header cut one byte short: %v, want ErrCorrupt", err)
	}
	hb, err := ParseHeader(b)
	if err != nil {
		t.Fatal(err)
	}
	if unsafe.StringData(h.Codec) != unsafe.StringData(hb.Codec) || unsafe.StringData(idx.Codec) != unsafe.StringData(hb.Codec) {
		t.Error("two parsed containers hold separate copies of their codec's name")
	}
}

// TestUnpackAllocBudget pins the verifying Unpack's allocation count on
// the generated containers POST /v1/pack builds, under every codec. It
// does not grow with the block count. The index is five allocations at
// most: the block table (the graph's own blocks), the payload table,
// one string for every label and function name, the edge array (the
// graph's successor store) and the group directory. The codec is at
// most three: huffman's struct, symbols and the decode table its first
// decode builds, or dict's struct and word table. The CFG is four: the
// graph, its block pointers, its edge lists and the predecessor store.
// Then the plain image, the rescanned group offsets, the instructions,
// the Program and the Info: at most 16 (dict), and one spare.
func TestUnpackAllocBudget(t *testing.T) {
	const budget = 17
	for _, codecName := range compress.Names() {
		for i, b := range generatedBuilds(t, codecName, 32) {
			if _, _, _, err := Unpack("gen", b.container); err != nil {
				t.Fatal(err)
			}
			allocs := testing.AllocsPerRun(5, func() {
				if _, _, _, err := Unpack("gen", b.container); err != nil {
					t.Fatal(err)
				}
			})
			if allocs > budget {
				t.Errorf("%s program %d: Unpack allocates %.0f times, budget %d (blocks=%d)",
					codecName, i, allocs, budget, b.prog.Graph.NumBlocks())
			}
		}
	}
}
