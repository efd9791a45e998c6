package pack

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"apbcc/internal/compress"
	"apbcc/internal/program"
	"apbcc/internal/workloads"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden_containers.json from the current implementation")

// goldenContainer pins one Pack output by size and SHA-256.
type goldenContainer struct {
	Program string `json:"program"`
	Codec   string `json:"codec"`
	Bytes   int    `json:"bytes"`
	SHA256  string `json:"sha256"`
}

// goldenAssembly are fixed sources for the POST /v1/pack path: the
// assembler, CFG construction and label attachment run before training
// and Pack. Every block start carries at most one label.
var goldenAssembly = []struct{ name, src string }{
	{"countdown", `
start:
	addi r1, r0, 10
loop:
	addi r1, r1, -1
	bne  r1, r0, loop
	halt
`},
	{"calls", `
	.equ N, 12
	.equ BASE, 0x40
main:
	lui  r2, 0x7f
	addi r3, r0, N
	jal  body
	sys  1
	halt
body:
	lw   r4, BASE(r29)   ; load
	sw   r4, -4(r29)     # store
	add  r5, r4, r3      // sum
	andi r6, r5, 'A'
	beq  r6, r0, out
	sub  r3, r3, r5
	blt  r3, r0, body
out:
	jr   r31
	.align 4
tail:
	.word 0, 0x04210800
	nop
	j    tail
`},
}

// goldenBuilds packs every suite program and every golden source under
// every codec, in a fixed order.
func goldenBuilds(t *testing.T) []goldenContainer {
	t.Helper()
	var progs []*program.Program
	for _, name := range workloads.Names() {
		w, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		progs = append(progs, w.Program)
	}
	srcs := goldenAssembly
	for i, src := range workloads.GeneratedAssembly(1, 3) {
		srcs = append(srcs, struct{ name, src string }{fmt.Sprintf("gen%d", i), src})
	}
	for _, s := range srcs {
		p, err := program.FromAssembly(s.name, s.src)
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		progs = append(progs, p)
	}
	var out []goldenContainer
	for _, p := range progs {
		code, err := p.CodeBytes()
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range compress.Names() {
			codec, err := compress.New(name, code)
			if err != nil {
				t.Fatal(err)
			}
			data, err := Pack(p, codec)
			if err != nil {
				t.Fatalf("%s/%s: %v", p.Name, name, err)
			}
			sum := sha256.Sum256(data)
			out = append(out, goldenContainer{p.Name, name, len(data), hex.EncodeToString(sum[:])})
		}
	}
	return out
}

// TestGoldenContainers pins the exact bytes Pack emits for the suite and
// the golden sources under every codec, so the build path (assembler,
// CFG construction, codec training, compressors, container writer) cannot
// change one output byte — and with it no compression ratio — without
// this test saying so. Regenerate deliberately with -update-golden.
func TestGoldenContainers(t *testing.T) {
	got := goldenBuilds(t)
	path := filepath.Join("testdata", "golden_containers.json")
	if *updateGolden {
		data, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing fixture (run with -update-golden to create): %v", err)
	}
	var want []goldenContainer
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d containers, fixture has %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("%s/%s: %d bytes sha256 %s, fixture %s/%s %d bytes %s",
				got[i].Program, got[i].Codec, got[i].Bytes, got[i].SHA256,
				want[i].Program, want[i].Codec, want[i].Bytes, want[i].SHA256)
		}
	}
}
