package asm

import (
	"errors"
	"maps"
	"slices"
	"strconv"
	"strings"
	"testing"

	"apbcc/internal/isa"
)

// quotesSeparator reports whether src contains a char literal of one of
// the separators (; # , : and the displacement's '(') that the
// reference assembler cut at even inside quotes. Those sources are the
// intended difference between the two assemblers (TestCharLiteral pins
// the new behavior), so the equivalence check skips them. The substring
// test also catches quote runs the scanner pairs differently; skipping
// those costs coverage, not soundness.
func quotesSeparator(src string) bool {
	for _, lit := range []string{"';'", "'#'", "','", "':'", "'('"} {
		if strings.Contains(src, lit) {
			return true
		}
	}
	return false
}

// layoutMsgs start the reference's layout (pass one) diagnostics, which
// precede every operand error.
var layoutMsgs = []string{
	"invalid label", "duplicate label", ".equ wants", "invalid .equ name", ".equ value",
	".align wants", "bad .align argument", ".word wants", "unknown directive", "unknown mnemonic",
}

// wrapped reports whether Assemble's error ae is the intended other
// difference: an operand value outside -2^31..2^32-1, rejected where the
// reference wrapped it into range (TestWideOperands pins the new
// behavior). The reference then went on, so it either succeeded or
// failed at a later operand; a reference error on the same line is
// compared as usual.
func wrapped(ae, re *Error) bool {
	if ae == nil {
		return false
	}
	msg, ok := strings.CutSuffix(ae.Msg, " does not fit in 32 bits")
	if !ok {
		return false
	}
	v, err := strconv.ParseInt(msg[strings.LastIndexByte(msg, ' ')+1:], 10, 64)
	if err != nil || v >= -1<<31 && v <= 1<<32-1 {
		return false
	}
	if re == nil {
		return true
	}
	for _, m := range layoutMsgs {
		if strings.HasPrefix(re.Msg, m) {
			return false
		}
	}
	return re.Line > ae.Line
}

// checkAssembleEquivalence requires Assemble and refAssemble to agree
// on src: the same words and symbols, or both an *Error on the same
// line. A layout Assemble rejects as too large is not handed to the
// reference, which would allocate it. The labels Assemble lists must be
// its symbol table in source order, and its instructions its words
// decoded.
func checkAssembleEquivalence(t *testing.T, src string) {
	t.Helper()
	got, err := Assemble(src)
	var ae *Error
	if err != nil && !errors.As(err, &ae) {
		t.Fatalf("Assemble error %T is not *asm.Error: %v", err, err)
	}
	if ae != nil && strings.HasPrefix(ae.Msg, "program exceeds") {
		return
	}
	if got != nil {
		checkResult(t, src, got)
	}
	if quotesSeparator(src) {
		return
	}
	want, refErr := refAssemble(src)
	var re *Error
	if refErr != nil && !errors.As(refErr, &re) {
		t.Fatalf("refAssemble error %T is not *asm.Error: %v", refErr, refErr)
	}
	switch {
	case wrapped(ae, re):
	case (err == nil) != (refErr == nil):
		t.Fatalf("Assemble err = %v, refAssemble err = %v\nsource %q", err, refErr, src)
	case err != nil:
		if ae.Line != re.Line {
			t.Fatalf("error line %d (%v), reference line %d (%v)\nsource %q", ae.Line, err, re.Line, refErr, src)
		}
	default:
		if !slices.Equal(got.Words, want.Words) {
			t.Fatalf("words differ from the reference\nsource %q", src)
		}
		if !maps.Equal(got.Symbols, want.Symbols) {
			t.Fatalf("symbols %v, reference %v\nsource %q", got.Symbols, want.Symbols, src)
		}
	}
}

// checkResult checks the parts of r that Words and Symbols determine:
// Labels holds each symbol once, in nondecreasing address order, and
// Ins is Words decoded, or nil when some word does not decode.
func checkResult(t *testing.T, src string, r *Result) {
	t.Helper()
	if len(r.Labels) != len(r.Symbols) {
		t.Fatalf("%d labels, %d symbols\nsource %q", len(r.Labels), len(r.Symbols), src)
	}
	for i, l := range r.Labels {
		if addr, ok := r.Symbols[l.Name]; !ok || addr != l.Addr || i > 0 && l.Addr < r.Labels[i-1].Addr {
			t.Fatalf("label %d %v: symbol address %d (%v), labels %v\nsource %q", i, l, addr, ok, r.Labels, src)
		}
	}
	ins, err := isa.DecodeAll(r.Words)
	switch {
	case err != nil && r.Ins != nil:
		t.Fatalf("words do not decode (%v), but Ins is set\nsource %q", err, src)
	case err == nil && !slices.Equal(r.Ins, ins):
		t.Fatalf("Ins is not the words decoded\nsource %q", src)
	}
}

// equivSources are deterministic inputs for both the golden test and
// the fuzz seed set: every directive, operand form and error class.
var equivSources = []string{
	"",
	"\n   \n ; nothing\n",
	"start:\n\taddi r1, r0, 10\nloop:\n\taddi r1, r1, -1\n\tbne r1, r0, loop\n\thalt\n",
	".equ SIZE, 16\n.equ MASK, 0xff\naddi r1, r0, SIZE\nandi r2, r1, MASK\n.word 0xdeadbeef, 7\ntbl: .word tbl\n",
	"nop\n.align 4\naligned: halt",
	"nop ; semicolon\nnop # hash\nnop // slashes\n",
	"a: b: c: halt",
	"addi r1, r0, 'A'\n.word 'z', ' '",
	"lw r1, 8(r2)\nsw r3, -4(r29)\nlb r4, (r5)\nlui r6, 0x7fff\nsys 3\njr r31\njalr r1, r2\nj 0\njal 1",
	"ADDI R1, R0, 0b101\nBEQ r0, r0, 0",
	"nop\nfrobnicate r1",
	"add r1, r2, r99",
	"add r1, r2",
	"add r1, r2, r3, r4",
	"x: nop\nx: nop",
	"j nowhere",
	".bogus 1",
	"9lives: nop",
	"lw r1, r2",
	"addi r1, r0, 70000",
	".equ X",
	".align 0",
	".word",
	"addi r1, r0, 'ab'\n.zz",
	"add r1,,r2\nnop r1\n.word ,",
	"addi r1, r0, ''''\naddi r1, r0, '''",
	"\tnop\r\n\thalt\r\n",
	".equ A, B\n",
	".align 3\n.word 1,2,3,4\n.align 8",
	"addi r1, r0, 0xffffffff\nlui r2, 0xffff8000\nlw r3, 0xfffffffc(r2)\nandi r4, r0, M\n.equ M, 0xffffffff",
	"j 4294967301\naddi r1, r0, 4294967297",
	"addi r1, r0, 5   ; c\nadd r1, r2, r3\t# c\nj x // c\nx: lw r1, 4(r2) \r\nsw r1, 8(r2)\u00a0\n",
	"add r1, r2, r3 r4",
	"addi r1, r0, 5 /x",
}

// TestAssembleEquivalenceGolden runs the equivalence check on the
// deterministic inputs in plain `go test` runs, not only under fuzzing.
func TestAssembleEquivalenceGolden(t *testing.T) {
	for _, src := range equivSources {
		checkAssembleEquivalence(t, src)
	}
}

// FuzzAssembleEquivalence is the differential fuzzer of the single-scan
// assembler: on any source outside the char-literal fix it must match
// the reference's words, symbols and error line.
func FuzzAssembleEquivalence(f *testing.F) {
	for _, src := range equivSources {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		checkAssembleEquivalence(t, src)
	})
}

// TestLayoutBound: a layout past maxWords is an error at the line that
// crosses it, not an allocation.
func TestLayoutBound(t *testing.T) {
	for _, c := range []struct {
		src  string
		line int
	}{
		{"nop\n.align 0x7fffffffffffffff", 2},
		{"nop\n\n.align 2000000\nhalt", 3},
		{"nop\n.align 1048576\nhalt", 3},
	} {
		if got := errorLine(t, c.src); got != c.line {
			t.Errorf("%q: error line %d, want %d", c.src, got, c.line)
		}
	}
	r := assemble(t, "nop\n.align 1048576")
	if len(r.Words) != maxWords {
		t.Errorf("words = %d, want %d", len(r.Words), maxWords)
	}
}
