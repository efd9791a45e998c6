package workloads

import (
	"fmt"
	"math/rand"
	"strings"
)

// GeneratedAssembly returns n seeded random ERI32 assembly programs, the
// shape of program the pack-write benchmark workload POSTs to /v1/pack
// (24–47 labelled blocks of 2–9 instructions each, about 35 blocks on
// average). The same seed always yields the same sources; the build
// path's microbenchmarks (assembler, codec training, pack, verify and
// the POST handler) all rotate over them.
func GeneratedAssembly(seed int64, n int) []string {
	rng := rand.New(rand.NewSource(seed ^ 0x7061636b))
	out := make([]string, n)
	for i := range out {
		out[i] = genAssembly(rng)
	}
	return out
}

var (
	genALUR     = []string{"add", "sub", "and", "or", "xor", "sll", "mul"}
	genALUI     = []string{"addi", "andi", "ori", "xori", "slti"}
	genMemOps   = []string{"lw", "sw"}
	genBranches = []string{"beq", "bne", "blt", "bge"}
)

// genAssembly writes one program. Each block ends in a control
// transfer, so every label starts a basic block; branch and jump
// targets are labels of the same program.
func genAssembly(rng *rand.Rand) string {
	n := 24 + rng.Intn(24)
	reg := func() int { return 1 + rng.Intn(15) }
	var sb strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, "b%d:\n", i)
		for k := 1 + rng.Intn(8); k > 0; k-- {
			switch rng.Intn(3) {
			case 0:
				fmt.Fprintf(&sb, "\t%s r%d, r%d, r%d\n", genALUR[rng.Intn(len(genALUR))], reg(), reg(), reg())
			case 1:
				fmt.Fprintf(&sb, "\t%s r%d, r%d, %d\n", genALUI[rng.Intn(len(genALUI))], reg(), reg(), rng.Intn(128)-64)
			default:
				fmt.Fprintf(&sb, "\t%s r%d, %d(r%d)\n", genMemOps[rng.Intn(len(genMemOps))], reg(), 4*rng.Intn(64), reg())
			}
		}
		switch {
		case i == n-1:
			sb.WriteString("\thalt\n")
		case rng.Intn(4) == 0:
			fmt.Fprintf(&sb, "\tj b%d\n", rng.Intn(n))
		default:
			fmt.Fprintf(&sb, "\t%s r%d, r%d, b%d\n", genBranches[rng.Intn(len(genBranches))], reg(), reg(), rng.Intn(n))
		}
	}
	return sb.String()
}
