package pack

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"slices"
	"testing"

	"apbcc/internal/cfg"
	"apbcc/internal/compress"
	"apbcc/internal/faults"
	"apbcc/internal/isa"
	"apbcc/internal/program"
	"apbcc/internal/workloads"
)

// buildContainer packs a suite workload for corruption testing.
func buildContainer(t testing.TB, workload, codecName string) ([]byte, []byte) {
	t.Helper()
	wl, err := workloads.ByName(workload)
	if err != nil {
		t.Fatal(err)
	}
	code, err := wl.Program.CodeBytes()
	if err != nil {
		t.Fatal(err)
	}
	codec, err := compress.New(codecName, code)
	if err != nil {
		t.Fatal(err)
	}
	data, err := Pack(wl.Program, codec)
	if err != nil {
		t.Fatal(err)
	}
	return data, code
}

// TestUnpackTruncated feeds every prefix of a valid container to
// Unpack: none may panic, none may succeed except the full container.
func TestUnpackTruncated(t *testing.T) {
	data, _ := buildContainer(t, "crc32", "dict")
	for n := 0; n < len(data); n++ {
		if _, _, _, err := Unpack("trunc", data[:n]); err == nil {
			t.Fatalf("Unpack accepted %d/%d-byte prefix", n, len(data))
		}
	}
	if _, _, _, err := Unpack("full", data); err != nil {
		t.Fatalf("full container rejected: %v", err)
	}
}

// TestUnpackBitFlips flips one bit at a time across the whole container
// and asserts Unpack returns an error (or, rarely, a still-valid
// program) without panicking. Every error must carry one of the
// sentinels that mark a damaged container (the test's own isCorrupt
// oracle, which lists the five that IsCorrupt checks), so the server
// quarantines a damaged store copy: a flipped edge, which no CRC
// covers, fails as a program whose transfers lack their CFG edges, and
// that wraps ErrCorrupt too.
func TestUnpackBitFlips(t *testing.T) {
	data, _ := buildContainer(t, "crc32", "dict")
	mut := make([]byte, len(data))
	for i := 0; i < len(data); i++ {
		for bit := 0; bit < 8; bit++ {
			copy(mut, data)
			mut[i] ^= 1 << bit
			p, _, _, err := Unpack("flip", mut)
			if err != nil {
				if !isCorrupt(err) {
					t.Fatalf("bit %d of byte %d: %v wraps no corrupt sentinel", bit, i, err)
				}
				continue
			}
			// A flip in an unused float bit of an edge probability can
			// legitimately survive; the program must still validate.
			if verr := p.Validate(); verr != nil {
				t.Fatalf("bit %d of byte %d: Unpack succeeded with invalid program: %v", bit, i, verr)
			}
		}
	}
}

// isCorrupt reports whether err wraps one of the sentinels that mark a
// damaged container.
func isCorrupt(err error) bool {
	for _, s := range []error{ErrCorrupt, ErrBadMagic, ErrBadVersion, ErrBadChecksum, compress.ErrCorrupt} {
		if errors.Is(err, s) {
			return true
		}
	}
	return false
}

// TestIsCorrupt pins the quarantine verdict: each sentinel Unpack
// rejects damaged bytes with is corrupt bare and however deeply it is
// wrapped (the way the server sees it), and an injected transient
// fault, a missing group directory, an unknown codec name or any
// other error is not.
func TestIsCorrupt(t *testing.T) {
	type row struct {
		name string
		err  error
		want bool
	}
	var rows []row
	for _, s := range []struct {
		name string
		err  error
	}{
		{"pack.ErrCorrupt", ErrCorrupt},
		{"pack.ErrBadMagic", ErrBadMagic},
		{"pack.ErrBadVersion", ErrBadVersion},
		{"pack.ErrBadChecksum", ErrBadChecksum},
		{"compress.ErrCorrupt", compress.ErrCorrupt},
	} {
		rows = append(rows,
			row{s.name, s.err, true},
			row{"wrapped " + s.name, fmt.Errorf("pack: block 3: %w", s.err), true},
			row{"double-wrapped " + s.name, fmt.Errorf("service: %w", fmt.Errorf("pack: block 3: %w", s.err)), true})
	}
	_, _, _, garbage := Unpack("garbage", []byte("not a container at all"))
	rows = append(rows,
		row{"Unpack(garbage)", garbage, true},
		row{"faults.ErrTransient", faults.ErrTransient, false},
		row{"wrapped injected fault", fmt.Errorf("pack: block 3 group decode: %w",
			fmt.Errorf("faults: site compress.decode: %w", faults.ErrTransient)), false},
		row{"pack.ErrNoGroupIndex", ErrNoGroupIndex, false},
		row{"compress.ErrUnknownCodec", compress.ErrUnknownCodec, false},
		row{"anonymous", errors.New("something else"), false},
		row{"nil", nil, false})
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			if got := IsCorrupt(r.err); got != r.want {
				t.Fatalf("IsCorrupt(%v) = %v, want %v", r.err, got, r.want)
			}
		})
	}
}

// TestUnpackTypedErrors drives each typed failure deliberately.
func TestUnpackTypedErrors(t *testing.T) {
	data, code := buildContainer(t, "fir", "identity")

	t.Run("bad magic", func(t *testing.T) {
		mut := append([]byte{}, data...)
		mut[0] ^= 0xFF
		if _, _, _, err := Unpack("m", mut); !errors.Is(err, ErrBadMagic) {
			t.Fatalf("err = %v, want ErrBadMagic", err)
		}
	})

	t.Run("bad version", func(t *testing.T) {
		// The retired v1 and v2 formats and any later one: the version
		// is a single-byte uvarint right after the magic.
		for _, v := range []byte{1, 2, Version + 1} {
			mut := append([]byte{}, data...)
			mut[len(Magic)] = v
			if _, _, _, err := Unpack("v", mut); !errors.Is(err, ErrBadVersion) {
				t.Fatalf("version %d: err = %v, want ErrBadVersion", v, err)
			}
		}
	})

	t.Run("checksum mismatch", func(t *testing.T) {
		// With the identity codec the plain image appears verbatim in
		// the payloads; flipping a bit there keeps every block
		// decodable and length-correct, so only the whole-image CRC can
		// catch it.
		mut := append([]byte{}, data...)
		idx := bytes.Index(mut, code[:16])
		if idx < 0 {
			t.Fatal("plain image not found in identity container")
		}
		mut[idx] ^= 0x01
		if _, _, _, err := Unpack("crc", mut); !errors.Is(err, ErrBadChecksum) {
			t.Fatalf("err = %v, want ErrBadChecksum", err)
		}
	})

	t.Run("invalid opcode", func(t *testing.T) {
		// Packed from an image whose first word encodes no instruction,
		// the container holds every checksum, so only the instruction
		// decode rejects it, as corrupt.
		wl, err := workloads.ByName("fir")
		if err != nil {
			t.Fatal(err)
		}
		image := bytes.Clone(code)
		isa.ByteOrder.PutUint32(image, 63<<26) // opcode 63 is undefined
		codec := identityCodec(t)
		payloads, crcs, err := compressBlocks(wl.Program, image, codec)
		if err != nil {
			t.Fatal(err)
		}
		gw, flat, bases := groupDirectory(codec, wl.Program.Graph.Blocks(), payloads)
		ix := indexParts{
			codec: codec.Name(), model: compress.MarshalModel(codec), imageCRC: crc32.ChecksumIEEE(image),
			g: wl.Program.Graph, payloads: payloads, crcs: crcs, gw: gw, flat: flat, bases: bases,
		}
		mut := ix.append(nil)
		for _, pay := range payloads {
			mut = append(mut, pay...)
		}
		if _, _, _, err := Unpack("op", mut); !errors.Is(err, ErrCorrupt) || !errors.Is(err, isa.ErrBadOpcode) {
			t.Fatalf("err = %v, want ErrCorrupt wrapping isa.ErrBadOpcode", err)
		}
	})

	t.Run("empty", func(t *testing.T) {
		if _, _, _, err := Unpack("e", nil); !errors.Is(err, ErrBadMagic) {
			t.Fatalf("err = %v, want ErrBadMagic", err)
		}
	})

	t.Run("truncated after version", func(t *testing.T) {
		// Magic and version survive but the codec fields are gone:
		// reading them must report corruption, not panic.
		if _, _, _, err := Unpack("c", data[:len(Magic)+1]); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("err = %v, want ErrCorrupt", err)
		}
	})
}

// FuzzUnpack hands the decoder arbitrary mutations of real containers;
// the engine fails the run on any panic. Whatever parses must survive
// re-packing.
func FuzzUnpack(f *testing.F) {
	for _, codec := range []string{"dict", "identity", "lzss", "cpack", "bdi"} {
		data, _ := buildContainer(f, "crc32", codec)
		f.Add(data)
		// The same container behind the retired v1 version byte.
		v1 := bytes.Clone(data)
		v1[len(Magic)] = 1
		f.Add(v1)
	}
	f.Add([]byte("APCC"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		p, codec, _, err := Unpack("fuzz", data)
		if err != nil {
			return
		}
		// Accepted input must describe a valid, re-packable program.
		if err := p.Validate(); err != nil {
			t.Fatalf("accepted invalid program: %v", err)
		}
		if _, err := Pack(p, codec); err != nil {
			t.Fatalf("accepted program fails re-pack: %v", err)
		}
	})
}

// TestUnpackRejectsHugeWordsClaim: a tiny container whose index claims
// an astronomical block size must fail with ErrCorrupt before any
// large allocation — the claimed plain size is a hint to verify, not
// to trust (a 4 TiB pre-allocation here used to be a fatal OOM).
func TestUnpackRejectsHugeWordsClaim(t *testing.T) {
	craft := func(words uint64) []byte {
		var buf bytes.Buffer
		buf.Write(Magic)
		writeUvarint(&buf, Version)
		writeBytes(&buf, []byte("identity"))
		writeBytes(&buf, nil)         // empty model
		writeFixed32(&buf, 0)         // image CRC (never reached)
		writeUvarint(&buf, 0)         // entry
		writeUvarint(&buf, 1)         // nblocks
		writeBytes(&buf, []byte("b")) // label
		writeBytes(&buf, nil)         // func
		writeUvarint(&buf, words)
		writeUvarint(&buf, 0) // payload off
		writeUvarint(&buf, 0) // payload len
		writeFixed32(&buf, 0) // block CRC
		writeUvarint(&buf, 0) // nedges
		writeUvarint(&buf, 0) // group words (no directory)
		writeUvarint(&buf, 0) // payload section length
		return buf.Bytes()
	}
	for _, words := range []uint64{1 << 40, 1 << 61, 1 << 63} {
		_, _, _, err := Unpack("hostile", craft(words))
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("words=%d: err = %v, want ErrCorrupt", words, err)
		}
	}
	// A modest claim still fails verification (0 payload bytes cannot
	// decode to 2 words) but exercises the same path without tripping
	// the parse-time bound.
	if _, _, _, err := Unpack("hostile", craft(2)); err == nil {
		t.Fatal("modest lying claim accepted")
	}
}

// withDirectory returns a copy of a packed container whose group
// directory is rebuilt with gw-word groups and offs(i) as block i's
// group offsets. The directory and the payload section length end the
// index, so everything else is kept.
func withDirectory(t *testing.T, data []byte, gw int, offs func(i int) []uint32) []byte {
	t.Helper()
	idx, err := ParseIndex(data)
	if err != nil {
		t.Fatal(err)
	}
	encode := func(gw int, offs func(int) []uint32) []byte {
		buf := binary.AppendUvarint(nil, uint64(gw))
		for i := 0; gw > 0 && i < len(idx.Blocks); i++ {
			var prev uint32
			for _, o := range offs(i) {
				buf = binary.AppendUvarint(buf, uint64(o-prev))
				prev = o
			}
		}
		return binary.AppendUvarint(buf, uint64(idx.PayloadLen))
	}
	old := encode(idx.GroupWords, idx.BlockGroupOffsets)
	start := int(idx.PayloadBase) - len(old)
	if !bytes.Equal(data[start:idx.PayloadBase], old) {
		t.Fatal("the group directory does not end the index")
	}
	out := slices.Concat(data[:start], encode(gw, offs), data[idx.PayloadBase:])
	if _, err := ParseIndex(out); err != nil {
		t.Fatalf("rebuilt directory fails ParseIndex: %v", err)
	}
	return out
}

// TestUnpackChecksGroupDirectory: a word read decodes through the group
// directory alone, so Unpack must reject a directory that ParseIndex
// accepts but that does not fit the payloads. A group codec's container
// gets block 0's group-1 offset moved by one byte, and groups of twice
// the codec's size; any other codec's container gets a directory at
// all. Block 0 has 70 words, three groups even at cpack's 32 words.
func TestUnpackChecksGroupDirectory(t *testing.T) {
	g := cfg.New()
	a, b := g.AddBlock("a", 70), g.AddBlock("b", 9)
	g.MustAddEdge(a, b, cfg.EdgeJump, 1)
	p, err := program.Synthesize("groups", g, 7)
	if err != nil {
		t.Fatal(err)
	}
	code, err := p.CodeBytes()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range compress.Names() {
		t.Run(name, func(t *testing.T) {
			codec, err := compress.New(name, code)
			if err != nil {
				t.Fatal(err)
			}
			data, err := Pack(p, codec)
			if err != nil {
				t.Fatal(err)
			}
			if _, _, _, err := Unpack(p.Name, data); err != nil {
				t.Fatal(err)
			}
			idx, err := ParseIndex(data)
			if err != nil {
				t.Fatal(err)
			}
			bad := map[string][]byte{}
			if idx.GroupWords == 0 {
				bad["directory"] = withDirectory(t, data, 8, func(i int) []uint32 {
					offs := make([]uint32, (idx.Blocks[i].Words+7)/8)
					for g := range offs {
						offs[g] = uint32(g)
					}
					return offs
				})
			} else {
				bad["moved"] = withDirectory(t, data, idx.GroupWords, func(i int) []uint32 {
					offs := slices.Clone(idx.BlockGroupOffsets(i))
					if i == 0 {
						offs[1]++
					}
					return offs
				})
				bad["regrouped"] = withDirectory(t, data, 2*idx.GroupWords, func(i int) []uint32 {
					var offs []uint32
					for g, o := range idx.BlockGroupOffsets(i) {
						if g%2 == 0 {
							offs = append(offs, o)
						}
					}
					return offs
				})
			}
			for kind, c := range bad {
				if _, _, _, err := Unpack(p.Name, c); !errors.Is(err, ErrCorrupt) {
					t.Errorf("%s: err = %v, want ErrCorrupt", kind, err)
				}
			}
		})
	}
}
