package asm

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"apbcc/internal/isa"
)

func assemble(t *testing.T, src string) *Result {
	t.Helper()
	r, err := Assemble(src)
	if err != nil {
		t.Fatalf("Assemble: %v", err)
	}
	return r
}

func decode(t *testing.T, w uint32) isa.Instruction {
	t.Helper()
	in, err := isa.Decode(w)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	return in
}

func TestBasicProgram(t *testing.T) {
	r := assemble(t, `
		; simple countdown
		start:
			addi r1, r0, 10
		loop:
			addi r1, r1, -1
			bne  r1, r0, loop
			halt
	`)
	if len(r.Words) != 4 {
		t.Fatalf("words = %d, want 4", len(r.Words))
	}
	if r.Symbols["start"] != 0 || r.Symbols["loop"] != 1 {
		t.Errorf("symbols = %v", r.Symbols)
	}
	br := decode(t, r.Words[2])
	if br.Op != isa.OpBNE {
		t.Fatalf("word 2 op = %v", br.Op)
	}
	if tgt, ok := br.StaticTarget(2); !ok || tgt != 1 {
		t.Errorf("branch target = %d, want 1", tgt)
	}
	if decode(t, r.Words[3]).Op != isa.OpHALT {
		t.Error("word 3 is not halt")
	}
}

func TestForwardReference(t *testing.T) {
	r := assemble(t, `
			beq r0, r0, done
			nop
		done:
			halt
	`)
	br := decode(t, r.Words[0])
	if tgt, ok := br.StaticTarget(0); !ok || tgt != 2 {
		t.Errorf("forward branch target = %d, want 2", tgt)
	}
}

func TestJumpToLabel(t *testing.T) {
	r := assemble(t, `
		main:
			j end
			nop
			nop
		end:
			halt
	`)
	j := decode(t, r.Words[0])
	if j.Op != isa.OpJ || j.Imm != 3 {
		t.Errorf("jump = %v, want j 3", j)
	}
}

func TestLoadStoreSyntax(t *testing.T) {
	r := assemble(t, `
		lw r1, 8(r2)
		sw r3, -4(r29)
		lb r4, (r5)
	`)
	lw := decode(t, r.Words[0])
	if lw.Op != isa.OpLW || lw.Rd != 1 || lw.Rs1 != 2 || lw.Imm != 8 {
		t.Errorf("lw = %v", lw)
	}
	sw := decode(t, r.Words[1])
	if sw.Op != isa.OpSW || sw.Rd != 3 || sw.Rs1 != 29 || sw.Imm != -4 {
		t.Errorf("sw = %v", sw)
	}
	lb := decode(t, r.Words[2])
	if lb.Imm != 0 || lb.Rs1 != 5 {
		t.Errorf("lb = %v", lb)
	}
}

func TestDirectives(t *testing.T) {
	r := assemble(t, `
		.equ SIZE, 16
		.equ MASK, 0xff
			addi r1, r0, SIZE
			andi r2, r1, MASK
			.word 0xdeadbeef, 7
		tbl: .word tbl
	`)
	if decode(t, r.Words[0]).Imm != 16 {
		t.Error("equ SIZE not applied")
	}
	if decode(t, r.Words[1]).Imm != 0xff {
		t.Error("equ MASK not applied")
	}
	if r.Words[2] != 0xdeadbeef || r.Words[3] != 7 {
		t.Errorf("words = %#x %#x", r.Words[2], r.Words[3])
	}
	if r.Words[4] != 4 {
		t.Errorf("label-valued .word = %d, want 4", r.Words[4])
	}
}

func TestAlign(t *testing.T) {
	r := assemble(t, `
			nop
			.align 4
		aligned:
			halt
	`)
	if r.Symbols["aligned"] != 4 {
		t.Errorf("aligned at %d, want 4", r.Symbols["aligned"])
	}
	for i := 1; i < 4; i++ {
		if decode(t, r.Words[i]).Op != isa.OpNOP {
			t.Errorf("word %d is not nop padding", i)
		}
	}
}

func TestCommentStyles(t *testing.T) {
	r := assemble(t, `
		nop ; semicolon
		nop # hash
		nop // slashes
	`)
	if len(r.Words) != 3 {
		t.Errorf("words = %d, want 3", len(r.Words))
	}
}

func TestMultipleLabelsOneLine(t *testing.T) {
	r := assemble(t, `
		a: b: c: halt
	`)
	for _, l := range []string{"a", "b", "c"} {
		if r.Symbols[l] != 0 {
			t.Errorf("label %s = %d", l, r.Symbols[l])
		}
	}
}

func TestCharLiteral(t *testing.T) {
	r := assemble(t, `addi r1, r0, 'A'`)
	if decode(t, r.Words[0]).Imm != 65 {
		t.Error("char literal")
	}
	// A literal is one token: the comment, label and operand separators
	// inside it are characters, not syntax.
	for _, c := range []byte{';', '#', ',', ':'} {
		src := fmt.Sprintf("x: addi r1, r0, '%c' ; comment\n.word '%c', 7 # comment", c, c)
		r := assemble(t, src)
		if got := decode(t, r.Words[0]).Imm; got != int32(c) {
			t.Errorf("addi with '%c': imm = %d, want %d", c, got, c)
		}
		if len(r.Words) != 3 || r.Words[1] != uint32(c) || r.Words[2] != 7 {
			t.Errorf(".word '%c', 7 = %v", c, r.Words[1:])
		}
		if len(r.Symbols) != 1 || r.Symbols["x"] != 0 {
			t.Errorf("'%c': symbols = %v", c, r.Symbols)
		}
	}
	// The base register opens at the first '(' outside a literal.
	for _, c := range []byte{'(', ')'} {
		in := decode(t, assemble(t, fmt.Sprintf("lw r1, '%c'(r2)", c)).Words[0])
		if in.Imm != int32(c) || in.Rs1 != 2 {
			t.Errorf("lw r1, '%c'(r2) = %v, want displacement %d from r2", c, in, c)
		}
	}
}

// TestWideOperands: an operand outside -2^31..2^32-1 is an error on
// its line, not wrapped into a different program. Inside that range an
// immediate, like a .word value, is a 32-bit two's complement value.
func TestWideOperands(t *testing.T) {
	for _, c := range []struct {
		src  string
		line int
	}{
		{"j 4294967301", 1},
		{"nop\naddi r1, r0, 4294967297", 2},
		{"lw r1, 4294967304(r2)", 1},
		{".equ BIG, 4294967297\nnop\naddi r1, r0, BIG", 3},
		{".word 0x100000001", 1},
		{".word 7, -2147483649", 1},
		{"beq r0, r0, 4294967301", 1},
		{"lui r1, later\n.equ later, -4294967295", 1},
	} {
		_, err := Assemble(c.src)
		var ae *Error
		if !errors.As(err, &ae) || ae.Line != c.line || !strings.HasSuffix(ae.Msg, "does not fit in 32 bits") {
			t.Errorf("%q: error %v, want a 32-bit range error on line %d", c.src, err, c.line)
		}
	}
	r := assemble(t, ".word -2147483648, 0xffffffff, -1")
	if !slices.Equal(r.Words, []uint32{1 << 31, 1<<32 - 1, 1<<32 - 1}) {
		t.Errorf(".word range ends = %#x", r.Words)
	}
	for _, c := range []struct{ src, same string }{
		{"addi r1, r0, 0xffffffff", "addi r1, r0, -1"},
		{"lui r1, 0xffff8000", "lui r1, -32768"},
		{"lw r1, 0xfffffffc(r2)", "lw r1, -4(r2)"},
		{".equ M, 0xffffffff\naddi r1, r0, M", "addi r1, r0, -1"},
		{"andi r2, r0, M\n.equ M, 0xffff8000", "andi r2, r0, -32768"},
	} {
		r, err := Assemble(c.src)
		if err != nil {
			t.Errorf("%q: %v", c.src, err)
			continue
		}
		if want := assemble(t, c.same).Words; !slices.Equal(r.Words, want) {
			t.Errorf("%q = %#x, want %#x as %q", c.src, r.Words, want, c.same)
		}
	}
}

func TestNumericBranchTarget(t *testing.T) {
	r := assemble(t, `
		beq r0, r0, 0
		halt
	`)
	br := decode(t, r.Words[0])
	if tgt, _ := br.StaticTarget(0); tgt != 0 {
		t.Errorf("numeric branch target = %d", tgt)
	}
}

func errorLine(t *testing.T, src string) int {
	t.Helper()
	_, err := Assemble(src)
	if err == nil {
		t.Fatalf("Assemble(%q) succeeded, want error", src)
	}
	var ae *Error
	if !errors.As(err, &ae) {
		t.Fatalf("error %T is not *asm.Error", err)
	}
	return ae.Line
}

func TestErrors(t *testing.T) {
	cases := []struct {
		name string
		src  string
		line int
		frag string
	}{
		{"unknown mnemonic", "nop\nfrobnicate r1", 2, "unknown mnemonic"},
		{"bad register", "add r1, r2, r99", 1, "bad register"},
		{"bad operand count", "add r1, r2", 1, "wants rd, rs1, rs2"},
		{"duplicate label", "x: nop\nx: nop", 2, "duplicate label"},
		{"unknown target", "j nowhere", 1, "unknown target"},
		{"unknown directive", ".bogus 1", 1, "unknown directive"},
		{"bad label", "9lives: nop", 1, "invalid label"},
		{"bad displacement", "lw r1, r2", 1, "bad displacement operand"},
		{"imm overflow", "addi r1, r0, 70000", 1, "immediate out of range"},
		{"bad equ", ".equ X", 1, ".equ wants"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := Assemble(c.src)
			if err == nil {
				t.Fatal("no error")
			}
			if !strings.Contains(err.Error(), c.frag) {
				t.Errorf("error %q does not contain %q", err, c.frag)
			}
			if got := errorLine(t, c.src); got != c.line {
				t.Errorf("error line = %d, want %d", got, c.line)
			}
		})
	}
}

func TestRoundTripThroughDisassembler(t *testing.T) {
	src := `
		entry:
			addi r1, r0, 100
			addi r2, r0, 0
		loop:
			add  r2, r2, r1
			addi r1, r1, -1
			bne  r1, r0, loop
			halt
	`
	r := assemble(t, src)
	ins, err := isa.DecodeAll(r.Words)
	if err != nil {
		t.Fatal(err)
	}
	// Re-encode the decoded instructions; images must be identical.
	words, err := isa.EncodeAll(ins)
	if err != nil {
		t.Fatal(err)
	}
	for i := range words {
		if words[i] != r.Words[i] {
			t.Errorf("word %d differs after round trip", i)
		}
	}
}

func TestEmptySource(t *testing.T) {
	r := assemble(t, "\n   \n ; nothing\n")
	if len(r.Words) != 0 {
		t.Errorf("words = %d, want 0", len(r.Words))
	}
}
