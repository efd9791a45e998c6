package isa

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func TestOpcodeTableComplete(t *testing.T) {
	for op := Opcode(0); op < numOpcodes; op++ {
		if opTable[op].name == "" {
			t.Errorf("opcode %d has no table entry", uint8(op))
		}
	}
}

func TestOpcodeByName(t *testing.T) {
	for op := Opcode(0); op < numOpcodes; op++ {
		got, ok := OpcodeByName(op.String())
		if !ok {
			t.Fatalf("OpcodeByName(%q) not found", op.String())
		}
		if got != op {
			t.Errorf("OpcodeByName(%q) = %v, want %v", op.String(), got, op)
		}
	}
	for _, name := range []string{"bogus", "", "ad", "add\x00", "ADD", "addi ", "haltx", "\x03add"} {
		if _, ok := OpcodeByName(name); ok {
			t.Errorf("OpcodeByName(%q) unexpectedly found", name)
		}
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	cases := []Instruction{
		{Op: OpADD, Rd: 1, Rs1: 2, Rs2: 3},
		{Op: OpSUB, Rd: 31, Rs1: 30, Rs2: 29},
		{Op: OpADDI, Rd: 5, Rs1: 0, Imm: -32768},
		{Op: OpADDI, Rd: 5, Rs1: 0, Imm: 32767},
		{Op: OpLUI, Rd: 7, Imm: 4097},
		{Op: OpLW, Rd: 4, Rs1: 29, Imm: -4},
		{Op: OpSW, Rd: 4, Rs1: 29, Imm: 1024},
		{Op: OpBEQ, Rs1: 1, Rs2: 2, Imm: -100},
		{Op: OpBNE, Rs1: 3, Rs2: 0, Imm: 4},
		{Op: OpJ, Imm: 0},
		{Op: OpJ, Imm: 1<<26 - 1},
		{Op: OpJAL, Imm: 12345},
		{Op: OpJR, Rs1: 31},
		{Op: OpJALR, Rd: 31, Rs1: 4},
		{Op: OpNOP},
		{Op: OpHALT},
		{Op: OpSYS, Imm: 7},
	}
	for _, in := range cases {
		w, err := in.Encode()
		if err != nil {
			t.Fatalf("Encode(%v): %v", in, err)
		}
		got, err := Decode(w)
		if err != nil {
			t.Fatalf("Decode(%#08x): %v", w, err)
		}
		if got != in {
			t.Errorf("round trip %v -> %#08x -> %v", in, w, got)
		}
	}
}

// randInstruction builds a random valid instruction for property tests.
func randInstruction(r *rand.Rand) Instruction {
	op := Opcode(r.Intn(NumOpcodes))
	in := Instruction{Op: op}
	switch op.Format() {
	case FormatR:
		in.Rd = Reg(r.Intn(NumRegs))
		in.Rs1 = Reg(r.Intn(NumRegs))
		in.Rs2 = Reg(r.Intn(NumRegs))
	case FormatI:
		in.Rd = Reg(r.Intn(NumRegs))
		in.Rs1 = Reg(r.Intn(NumRegs))
		in.Imm = int32(r.Intn(1<<16) - 1<<15)
	case FormatB:
		in.Rs1 = Reg(r.Intn(NumRegs))
		in.Rs2 = Reg(r.Intn(NumRegs))
		in.Imm = int32(r.Intn(1<<16) - 1<<15)
	case FormatJ:
		in.Imm = int32(r.Intn(1 << 26))
	}
	return in
}

func TestEncodeDecodeProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		in := randInstruction(r)
		w, err := in.Encode()
		if err != nil {
			return false
		}
		got, err := Decode(w)
		if err != nil {
			return false
		}
		// NOP/HALT/JR ignore some fields only in String, not encoding,
		// so full equality must hold.
		return got == in
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestValidateRejects(t *testing.T) {
	cases := []struct {
		in   Instruction
		want error
	}{
		{Instruction{Op: Opcode(250)}, ErrBadOpcode},
		{Instruction{Op: OpADD, Rd: 32}, ErrBadRegister},
		{Instruction{Op: OpADDI, Rd: 1, Imm: 1 << 20}, ErrImmRange},
		{Instruction{Op: OpBEQ, Imm: -40000}, ErrImmRange},
		{Instruction{Op: OpJ, Imm: -1}, ErrImmRange},
		{Instruction{Op: OpJ, Imm: 1 << 26}, ErrImmRange},
	}
	for _, c := range cases {
		if err := c.in.Validate(); !errors.Is(err, c.want) {
			t.Errorf("Validate(%v) = %v, want %v", c.in, err, c.want)
		}
		if _, err := c.in.Encode(); !errors.Is(err, c.want) {
			t.Errorf("Encode(%v) = %v, want %v", c.in, err, c.want)
		}
	}
}

func TestDecodeBadOpcode(t *testing.T) {
	w := uint32(63) << 26 // opcode 63 is undefined
	if _, err := Decode(w); !errors.Is(err, ErrBadOpcode) {
		t.Errorf("Decode = %v, want ErrBadOpcode", err)
	}
}

func TestControlClassification(t *testing.T) {
	cases := []struct {
		in                            Instruction
		branch, jump, indirect, falls bool
	}{
		{Instruction{Op: OpADD}, false, false, false, true},
		{Instruction{Op: OpBEQ}, true, false, false, true},
		{Instruction{Op: OpBGEU}, true, false, false, true},
		{Instruction{Op: OpJ}, false, true, false, false},
		{Instruction{Op: OpJAL}, false, true, false, true},
		{Instruction{Op: OpJR}, false, false, true, false},
		{Instruction{Op: OpJALR}, false, false, true, true},
		{Instruction{Op: OpHALT}, false, false, false, false},
	}
	for _, c := range cases {
		if got := c.in.IsBranch(); got != c.branch {
			t.Errorf("%s IsBranch = %v", c.in.Op, got)
		}
		if got := c.in.IsJump(); got != c.jump {
			t.Errorf("%s IsJump = %v", c.in.Op, got)
		}
		if got := c.in.IsIndirect(); got != c.indirect {
			t.Errorf("%s IsIndirect = %v", c.in.Op, got)
		}
		if got := c.in.HasFallthrough(); got != c.falls {
			t.Errorf("%s HasFallthrough = %v", c.in.Op, got)
		}
	}
}

func TestStaticTarget(t *testing.T) {
	br := Instruction{Op: OpBEQ, Rs1: 1, Rs2: 2, Imm: 10}
	if tgt, ok := br.StaticTarget(100); !ok || tgt != 111 {
		t.Errorf("branch target = %d,%v want 111,true", tgt, ok)
	}
	j := Instruction{Op: OpJ, Imm: 500}
	if tgt, ok := j.StaticTarget(100); !ok || tgt != 500 {
		t.Errorf("jump target = %d,%v want 500,true", tgt, ok)
	}
	add := Instruction{Op: OpADD}
	if _, ok := add.StaticTarget(0); ok {
		t.Error("add has a static target")
	}
	jr := Instruction{Op: OpJR, Rs1: 1}
	if _, ok := jr.StaticTarget(0); ok {
		t.Error("jr has a static target")
	}
}

func TestWithTarget(t *testing.T) {
	br := Instruction{Op: OpBNE, Rs1: 1, Rs2: 2, Imm: 4}
	nb, err := br.WithTarget(50, 20)
	if err != nil {
		t.Fatal(err)
	}
	if tgt, _ := nb.StaticTarget(50); tgt != 20 {
		t.Errorf("retargeted branch target = %d, want 20", tgt)
	}
	j := Instruction{Op: OpJ, Imm: 1}
	nj, err := j.WithTarget(0, 777)
	if err != nil {
		t.Fatal(err)
	}
	if tgt, _ := nj.StaticTarget(0); tgt != 777 {
		t.Errorf("retargeted jump target = %d, want 777", tgt)
	}
	if _, err := br.WithTarget(0, 1<<20); !errors.Is(err, ErrImmRange) {
		t.Errorf("far branch retarget err = %v, want ErrImmRange", err)
	}
	if _, err := (Instruction{Op: OpADD}).WithTarget(0, 0); err == nil {
		t.Error("WithTarget on add succeeded")
	}
}

func TestWithTargetRoundTripProperty(t *testing.T) {
	f := func(pcRaw, tgtRaw uint16) bool {
		pc := int(pcRaw % 4096)
		tgt := int(tgtRaw % 4096)
		br := Instruction{Op: OpBLT, Rs1: 3, Rs2: 4}
		nb, err := br.WithTarget(pc, tgt)
		if err != nil {
			return false
		}
		got, ok := nb.StaticTarget(pc)
		return ok && got == tgt
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestString(t *testing.T) {
	cases := []struct {
		in   Instruction
		want string
	}{
		{Instruction{Op: OpADD, Rd: 1, Rs1: 2, Rs2: 3}, "add r1, r2, r3"},
		{Instruction{Op: OpADDI, Rd: 1, Rs1: 0, Imm: -5}, "addi r1, r0, -5"},
		{Instruction{Op: OpLW, Rd: 2, Rs1: 29, Imm: 8}, "lw r2, 8(r29)"},
		{Instruction{Op: OpSW, Rd: 2, Rs1: 29, Imm: -8}, "sw r2, -8(r29)"},
		{Instruction{Op: OpBEQ, Rs1: 1, Rs2: 0, Imm: 3}, "beq r1, r0, 3"},
		{Instruction{Op: OpJ, Imm: 99}, "j 99"},
		{Instruction{Op: OpJR, Rs1: 31}, "jr r31"},
		{Instruction{Op: OpNOP}, "nop"},
		{Instruction{Op: OpHALT}, "halt"},
		{Instruction{Op: OpLUI, Rd: 3, Imm: 16}, "lui r3, 16"},
		{Instruction{Op: OpSYS, Imm: 2}, "sys 2"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("String = %q, want %q", got, c.want)
		}
	}
}

// bytesToWords deserializes a little-endian memory image into
// instruction words. The image length must be a multiple of WordSize.
func bytesToWords(buf []byte) ([]uint32, error) {
	if len(buf)%WordSize != 0 {
		return nil, fmt.Errorf("%w: %d bytes is not a whole number of words", ErrShortBuffer, len(buf))
	}
	words := make([]uint32, len(buf)/WordSize)
	for i := range words {
		words[i] = ByteOrder.Uint32(buf[i*WordSize:])
	}
	return words, nil
}

func TestWordsBytesRoundTrip(t *testing.T) {
	words := []uint32{0, 1, 0xdeadbeef, 0xffffffff, 42}
	buf := WordsToBytes(words)
	if len(buf) != len(words)*WordSize {
		t.Fatalf("len = %d", len(buf))
	}
	back, err := bytesToWords(buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := range words {
		if back[i] != words[i] {
			t.Errorf("word %d = %#x, want %#x", i, back[i], words[i])
		}
	}
}

func TestBytesToWordsShort(t *testing.T) {
	if _, err := bytesToWords(make([]byte, 7)); !errors.Is(err, ErrShortBuffer) {
		t.Errorf("err = %v, want ErrShortBuffer", err)
	}
}

func TestWordsBytesProperty(t *testing.T) {
	f := func(words []uint32) bool {
		back, err := bytesToWords(WordsToBytes(words))
		if err != nil || len(back) != len(words) {
			return false
		}
		for i := range words {
			if back[i] != words[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEncodeAllDecodeAll(t *testing.T) {
	ins := []Instruction{
		{Op: OpADDI, Rd: 1, Rs1: 0, Imm: 10},
		{Op: OpADD, Rd: 2, Rs1: 1, Rs2: 1},
		{Op: OpBEQ, Rs1: 2, Rs2: 0, Imm: 1},
		{Op: OpHALT},
	}
	words, err := EncodeAll(ins)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeAll(words)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ins {
		if back[i] != ins[i] {
			t.Errorf("instruction %d = %v, want %v", i, back[i], ins[i])
		}
	}
}

func TestEncodeAllError(t *testing.T) {
	_, err := EncodeAll([]Instruction{{Op: Opcode(200)}})
	if err == nil {
		t.Fatal("EncodeAll accepted an invalid instruction")
	}
	if !strings.Contains(err.Error(), "instruction 0") {
		t.Errorf("error %q does not locate the bad instruction", err)
	}
}

func TestDisassemble(t *testing.T) {
	words, err := EncodeAll([]Instruction{
		{Op: OpADDI, Rd: 1, Rs1: 0, Imm: 3},
		{Op: OpHALT},
	})
	if err != nil {
		t.Fatal(err)
	}
	lines, err := Disassemble(words)
	if err != nil {
		t.Fatal(err)
	}
	if len(lines) != 2 {
		t.Fatalf("lines = %d", len(lines))
	}
	if !strings.Contains(lines[0], "addi r1, r0, 3") {
		t.Errorf("line 0 = %q", lines[0])
	}
	if !strings.Contains(lines[1], "halt") {
		t.Errorf("line 1 = %q", lines[1])
	}
}

func TestRegString(t *testing.T) {
	if Reg(7).String() != "r7" {
		t.Error("Reg(7).String")
	}
	if !Reg(31).Valid() || Reg(32).Valid() {
		t.Error("Reg.Valid boundary")
	}
}

func TestFormatString(t *testing.T) {
	for f, want := range map[Format]string{FormatR: "R", FormatI: "I", FormatB: "B", FormatJ: "J"} {
		if f.String() != want {
			t.Errorf("Format %v", f)
		}
	}
}

// refDecode is Decode as it stood before decodeInto: a switch on the
// format filling a copied Instruction.
func refDecode(w uint32) (Instruction, error) {
	op := Opcode(w >> 26)
	if !op.Valid() {
		return Instruction{}, fmt.Errorf("%w: word %#08x", ErrBadOpcode, w)
	}
	in := Instruction{Op: op}
	switch op.Format() {
	case FormatR:
		in.Rd = Reg(w >> 21 & 0x1f)
		in.Rs1 = Reg(w >> 16 & 0x1f)
		in.Rs2 = Reg(w >> 11 & 0x1f)
	case FormatI:
		in.Rd = Reg(w >> 21 & 0x1f)
		in.Rs1 = Reg(w >> 16 & 0x1f)
		in.Imm = int32(int16(uint16(w)))
	case FormatB:
		in.Rs1 = Reg(w >> 21 & 0x1f)
		in.Rs2 = Reg(w >> 16 & 0x1f)
		in.Imm = int32(int16(uint16(w)))
	case FormatJ:
		in.Imm = int32(w & jmpMax26)
	}
	return in, nil
}

// TestDecodeMatchesReference: Decode, DecodeAll and DecodeBytes give
// refDecode's instruction, or its error, for every opcode value under
// random and extreme field bits, and DecodeBytes overwrites every field
// of a destination that held other instructions.
func TestDecodeMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	var words []uint32
	for op := uint32(0); op < 64; op++ {
		for _, low := range []uint32{0, 1<<26 - 1, 0x8000, 0x7fff, 0x03e0f800} {
			words = append(words, op<<26|low)
		}
		for k := 0; k < 200; k++ {
			words = append(words, op<<26|r.Uint32()&(1<<26-1))
		}
	}
	image := make([]byte, 4*len(words))
	for i, w := range words {
		ByteOrder.PutUint32(image[4*i:], w)
		want, wantErr := refDecode(w)
		got, err := Decode(w)
		if got != want || (err == nil) != (wantErr == nil) || errors.Is(err, ErrBadOpcode) != errors.Is(wantErr, ErrBadOpcode) {
			t.Fatalf("Decode(%#08x) = %v, %v; reference %v, %v", w, got, err, want, wantErr)
		}
		dst := []Instruction{{Op: OpSYS, Rd: 31, Rs1: 31, Rs2: 31, Imm: -1}}
		err = DecodeBytes(dst, image[4*i:4*i+4])
		if (err == nil) != (wantErr == nil) || (err == nil && dst[0] != want) {
			t.Fatalf("DecodeBytes of %#08x = %v, %v; reference %v, %v", w, dst[0], err, want, wantErr)
		}
	}
	// A run of valid words decodes in one call, as DecodeAll decodes it.
	var valid []uint32
	for _, w := range words {
		if Opcode(w >> 26).Valid() {
			valid = append(valid, w)
		}
	}
	all, err := DecodeAll(valid)
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]Instruction, len(valid))
	if err := DecodeBytes(dst, WordsToBytes(valid)); err != nil || !slices.Equal(dst, all) {
		t.Fatalf("DecodeBytes of %d valid words: %v, equal to DecodeAll %v", len(valid), err, slices.Equal(dst, all))
	}
	if err := DecodeBytes(dst, WordsToBytes(valid)[1:]); !errors.Is(err, ErrShortBuffer) {
		t.Fatalf("DecodeBytes of a ragged image: %v, want ErrShortBuffer", err)
	}
}

// TestStaticTargetOpcodes: StaticTarget finds a target for exactly the
// branches (PC-relative) and the J-format transfers (absolute), for
// every opcode value.
func TestStaticTargetOpcodes(t *testing.T) {
	for op := 0; op < 256; op++ {
		in := Instruction{Op: Opcode(op), Imm: 7}
		got, ok := in.StaticTarget(10)
		switch {
		case in.IsBranch():
			if !ok || got != 18 {
				t.Errorf("%v: target %d, %v; want 18", in.Op, got, ok)
			}
		case in.IsJump():
			if !ok || got != 7 {
				t.Errorf("%v: target %d, %v; want 7", in.Op, got, ok)
			}
		case ok:
			t.Errorf("%v: target %d for an opcode without one", in.Op, got)
		}
	}
}
