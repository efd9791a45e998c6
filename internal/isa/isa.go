// Package isa defines ERI32, a 32-bit fixed-width RISC instruction set
// for embedded targets, together with an encoder, a decoder and a
// disassembler.
//
// ERI32 exists so that the code-compression runtime in internal/core has
// real instruction bytes to compress and real branch instructions to
// patch. It deliberately mirrors the properties the DATE'05 paper
// assumes of its embedded target:
//
//   - fixed 32-bit instruction words (the unit of the dictionary codec),
//   - explicit branch/jump instructions whose targets can be rewritten
//     in place (needed for remember-set patching),
//   - a small, regular register file.
//
// The ISA has four formats:
//
//	R: |op:6|rd:5|rs1:5|rs2:5|func:11|   register-register ALU
//	I: |op:6|rd:5|rs1:5|imm:16|         ALU immediate, loads, stores
//	B: |op:6|rs1:5|rs2:5|off:16|        conditional branches (PC-relative, words)
//	J: |op:6|target:26|                 jumps and calls (absolute, words)
package isa

import (
	"errors"
	"fmt"
)

// WordSize is the size of one ERI32 instruction in bytes. All
// instructions are exactly one word.
const WordSize = 4

// NumRegs is the number of general-purpose registers (r0..r31); r0 is
// hardwired to zero by convention, as in most RISC machines.
const NumRegs = 32

// Reg identifies a general-purpose register.
type Reg uint8

// String returns the conventional assembly name of the register.
func (r Reg) String() string { return fmt.Sprintf("r%d", uint8(r)) }

// Valid reports whether the register number is architecturally valid.
func (r Reg) Valid() bool { return r < NumRegs }

// Format enumerates the ERI32 instruction formats.
type Format uint8

// Instruction formats.
const (
	FormatR Format = iota // register-register
	FormatI               // register-immediate / memory
	FormatB               // conditional branch
	FormatJ               // jump / call
)

// String returns the format mnemonic letter.
func (f Format) String() string {
	switch f {
	case FormatR:
		return "R"
	case FormatI:
		return "I"
	case FormatB:
		return "B"
	case FormatJ:
		return "J"
	}
	return fmt.Sprintf("Format(%d)", uint8(f))
}

// Opcode identifies an ERI32 operation.
type Opcode uint8

// The ERI32 opcode space. Opcode values are the 6-bit primary opcode
// field; they are stable and part of the encoding.
const (
	// R-format ALU.
	OpADD Opcode = iota
	OpSUB
	OpAND
	OpOR
	OpXOR
	OpSLL
	OpSRL
	OpSRA
	OpSLT
	OpSLTU
	OpMUL
	OpDIV
	OpREM
	OpNOR

	// I-format ALU.
	OpADDI
	OpANDI
	OpORI
	OpXORI
	OpSLTI
	OpLUI

	// Memory.
	OpLW
	OpLH
	OpLB
	OpSW
	OpSH
	OpSB

	// B-format conditional branches (PC-relative word offsets).
	OpBEQ
	OpBNE
	OpBLT
	OpBGE
	OpBLTU
	OpBGEU

	// J-format control transfer (absolute word addresses).
	OpJ
	OpJAL

	// R-format indirect control transfer.
	OpJR
	OpJALR

	// System.
	OpNOP
	OpHALT
	OpSYS

	numOpcodes // sentinel; keep last
)

// NumOpcodes is the number of defined opcodes.
const NumOpcodes = int(numOpcodes)

type opInfo struct {
	name   string
	format Format
}

var opTable = [numOpcodes]opInfo{
	OpADD:  {"add", FormatR},
	OpSUB:  {"sub", FormatR},
	OpAND:  {"and", FormatR},
	OpOR:   {"or", FormatR},
	OpXOR:  {"xor", FormatR},
	OpSLL:  {"sll", FormatR},
	OpSRL:  {"srl", FormatR},
	OpSRA:  {"sra", FormatR},
	OpSLT:  {"slt", FormatR},
	OpSLTU: {"sltu", FormatR},
	OpMUL:  {"mul", FormatR},
	OpDIV:  {"div", FormatR},
	OpREM:  {"rem", FormatR},
	OpNOR:  {"nor", FormatR},
	OpADDI: {"addi", FormatI},
	OpANDI: {"andi", FormatI},
	OpORI:  {"ori", FormatI},
	OpXORI: {"xori", FormatI},
	OpSLTI: {"slti", FormatI},
	OpLUI:  {"lui", FormatI},
	OpLW:   {"lw", FormatI},
	OpLH:   {"lh", FormatI},
	OpLB:   {"lb", FormatI},
	OpSW:   {"sw", FormatI},
	OpSH:   {"sh", FormatI},
	OpSB:   {"sb", FormatI},
	OpBEQ:  {"beq", FormatB},
	OpBNE:  {"bne", FormatB},
	OpBLT:  {"blt", FormatB},
	OpBGE:  {"bge", FormatB},
	OpBLTU: {"bltu", FormatB},
	OpBGEU: {"bgeu", FormatB},
	OpJ:    {"j", FormatJ},
	OpJAL:  {"jal", FormatJ},
	OpJR:   {"jr", FormatR},
	OpJALR: {"jalr", FormatR},
	OpNOP:  {"nop", FormatR},
	OpHALT: {"halt", FormatR},
	OpSYS:  {"sys", FormatI},
}

// String returns the assembly mnemonic of the opcode.
func (op Opcode) String() string {
	if op < numOpcodes {
		return opTable[op].name
	}
	return fmt.Sprintf("op(%d)", uint8(op))
}

// Valid reports whether the opcode is a defined ERI32 operation.
func (op Opcode) Valid() bool { return op < numOpcodes }

// Format returns the instruction format of the opcode.
func (op Opcode) Format() Format {
	if op < numOpcodes {
		return opTable[op].format
	}
	return FormatR
}

// OpcodeByName returns the opcode with the given assembly mnemonic.
// The assembler calls it once per statement, so it is one probe of a
// collision-free hash table over integer keys rather than a
// string-hashing map lookup.
func OpcodeByName(name string) (Opcode, bool) {
	if len(name) == 0 || len(name) > maxNameKeyLen {
		return 0, false
	}
	k := nameKey(name)
	e := opHash.slots[k*opHash.mul>>(64-opHashBits)]
	if e.key != k {
		return 0, false
	}
	return e.op, true
}

// maxNameKeyLen is the longest name nameKey packs without loss: seven
// bytes above the length byte.
const maxNameKeyLen = 7

// nameKey packs a name of at most maxNameKeyLen bytes and its length
// into one integer; distinct names get distinct keys, and no key is 0.
func nameKey(name string) uint64 {
	k := uint64(len(name))
	for i := 0; i < len(name); i++ {
		k |= uint64(name[i]) << (8 * (i + 1))
	}
	return k
}

// opHashBits sizes the mnemonic table: 256 slots for 39 keys, so a
// collision-free multiplier turns up within a few tries.
const opHashBits = 8

// opHash maps nameKey(name)*mul>>(64-opHashBits) to the mnemonic's
// slot. Empty slots have key 0, which no name has.
var opHash = func() (h struct {
	mul   uint64
	slots [1 << opHashBits]struct {
		key uint64
		op  Opcode
	}
}) {
	for op := Opcode(0); op < numOpcodes; op++ {
		if len(opTable[op].name) > maxNameKeyLen {
			panic("isa: mnemonic " + opTable[op].name + " is too long for nameKey")
		}
	}
	// Try odd multipliers, stepping by twice the golden ratio so
	// successive tries scatter differently, until no two mnemonics share
	// a slot. The search is deterministic and takes about ten tries.
	for h.mul = 0x9E3779B97F4A7C15; ; h.mul += 0x3C6EF372FE94F82A {
		clear(h.slots[:])
		ok := true
		for op := Opcode(0); op < numOpcodes && ok; op++ {
			k := nameKey(opTable[op].name)
			s := &h.slots[k*h.mul>>(64-opHashBits)]
			ok = s.key == 0
			s.key, s.op = k, op
		}
		if ok {
			return h
		}
	}
}()

// Instruction is one decoded ERI32 instruction. The meaning of the
// fields depends on the format:
//
//	R: Rd, Rs1, Rs2
//	I: Rd, Rs1, Imm (signed 16-bit; for lui, the high half-word)
//	B: Rs1, Rs2, Imm (signed PC-relative word offset)
//	J: Imm (absolute word address, 26 bits)
type Instruction struct {
	Op  Opcode
	Rd  Reg
	Rs1 Reg
	Rs2 Reg
	Imm int32
}

// Errors reported by encoding and decoding.
var (
	ErrBadOpcode   = errors.New("isa: invalid opcode")
	ErrBadRegister = errors.New("isa: invalid register")
	ErrImmRange    = errors.New("isa: immediate out of range")
	ErrShortBuffer = errors.New("isa: buffer too short")
)

const (
	immMin16 = -1 << 15
	immMax16 = 1<<15 - 1
	jmpMax26 = 1<<26 - 1
)

// Validate checks the instruction fields against the format constraints
// without encoding it.
func (in Instruction) Validate() error {
	if !in.Op.Valid() {
		return fmt.Errorf("%w: %d", ErrBadOpcode, uint8(in.Op))
	}
	switch in.Op.Format() {
	case FormatR:
		if !in.Rd.Valid() || !in.Rs1.Valid() || !in.Rs2.Valid() {
			return fmt.Errorf("%w: %s", ErrBadRegister, in.Op)
		}
	case FormatI:
		if !in.Rd.Valid() || !in.Rs1.Valid() {
			return fmt.Errorf("%w: %s", ErrBadRegister, in.Op)
		}
		if in.Imm < immMin16 || in.Imm > immMax16 {
			return fmt.Errorf("%w: %s imm=%d", ErrImmRange, in.Op, in.Imm)
		}
	case FormatB:
		if !in.Rs1.Valid() || !in.Rs2.Valid() {
			return fmt.Errorf("%w: %s", ErrBadRegister, in.Op)
		}
		if in.Imm < immMin16 || in.Imm > immMax16 {
			return fmt.Errorf("%w: %s offset=%d", ErrImmRange, in.Op, in.Imm)
		}
	case FormatJ:
		if in.Imm < 0 || in.Imm > jmpMax26 {
			return fmt.Errorf("%w: %s target=%d", ErrImmRange, in.Op, in.Imm)
		}
	}
	return nil
}

// Encode packs the instruction into its 32-bit word representation.
func (in Instruction) Encode() (uint32, error) {
	if err := in.Validate(); err != nil {
		return 0, err
	}
	w := uint32(in.Op) << 26
	switch in.Op.Format() {
	case FormatR:
		w |= uint32(in.Rd) << 21
		w |= uint32(in.Rs1) << 16
		w |= uint32(in.Rs2) << 11
	case FormatI:
		w |= uint32(in.Rd) << 21
		w |= uint32(in.Rs1) << 16
		w |= uint32(uint16(in.Imm))
	case FormatB:
		w |= uint32(in.Rs1) << 21
		w |= uint32(in.Rs2) << 16
		w |= uint32(uint16(in.Imm))
	case FormatJ:
		w |= uint32(in.Imm) & jmpMax26
	}
	return w, nil
}

// MustEncode is like Encode but panics on invalid instructions. It is
// intended for statically-known instruction constants in generators and
// tests.
func (in Instruction) MustEncode() uint32 {
	w, err := in.Encode()
	if err != nil {
		panic(err)
	}
	return w
}

// Decode unpacks a 32-bit word into an Instruction.
func Decode(w uint32) (Instruction, error) {
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

// String renders the instruction in assembly syntax.
func (in Instruction) String() string {
	switch in.Op {
	case OpNOP:
		return "nop"
	case OpHALT:
		return "halt"
	case OpJR:
		return fmt.Sprintf("jr %s", in.Rs1)
	case OpJALR:
		return fmt.Sprintf("jalr %s, %s", in.Rd, in.Rs1)
	case OpLUI:
		return fmt.Sprintf("lui %s, %d", in.Rd, in.Imm)
	case OpSYS:
		return fmt.Sprintf("sys %d", in.Imm)
	}
	switch in.Op.Format() {
	case FormatR:
		return fmt.Sprintf("%s %s, %s, %s", in.Op, in.Rd, in.Rs1, in.Rs2)
	case FormatI:
		switch in.Op {
		case OpLW, OpLH, OpLB:
			return fmt.Sprintf("%s %s, %d(%s)", in.Op, in.Rd, in.Imm, in.Rs1)
		case OpSW, OpSH, OpSB:
			return fmt.Sprintf("%s %s, %d(%s)", in.Op, in.Rd, in.Imm, in.Rs1)
		}
		return fmt.Sprintf("%s %s, %s, %d", in.Op, in.Rd, in.Rs1, in.Imm)
	case FormatB:
		return fmt.Sprintf("%s %s, %s, %d", in.Op, in.Rs1, in.Rs2, in.Imm)
	case FormatJ:
		return fmt.Sprintf("%s %d", in.Op, in.Imm)
	}
	return in.Op.String()
}

// IsBranch reports whether the instruction is a conditional branch.
func (in Instruction) IsBranch() bool { return in.Op.Format() == FormatB }

// IsJump reports whether the instruction is a direct unconditional jump
// or call (J-format).
func (in Instruction) IsJump() bool { return in.Op == OpJ || in.Op == OpJAL }

// IsIndirect reports whether the instruction transfers control through a
// register (its static target is unknown).
func (in Instruction) IsIndirect() bool { return in.Op == OpJR || in.Op == OpJALR }

// IsControl reports whether the instruction can change the PC to
// something other than the next sequential instruction.
func (in Instruction) IsControl() bool {
	return in.IsBranch() || in.IsJump() || in.IsIndirect() || in.Op == OpHALT
}

// EndsBlock reports whether the instruction terminates a basic block:
// any control transfer does.
func (in Instruction) EndsBlock() bool { return in.IsControl() }

// HasFallthrough reports whether control can continue to the next
// sequential instruction after this one executes. Unconditional jumps,
// indirect jumps (jr) and halt do not fall through; conditional branches
// and calls do.
func (in Instruction) HasFallthrough() bool {
	switch in.Op {
	case OpJ, OpJR, OpHALT:
		return false
	}
	return true
}

// StaticTarget returns the statically-known control-transfer target of
// the instruction as an absolute word index, given the word index pc of
// the instruction itself. ok is false for non-control and indirect
// instructions.
func (in Instruction) StaticTarget(pc int) (target int, ok bool) {
	switch {
	case in.IsBranch():
		return pc + 1 + int(in.Imm), true
	case in.IsJump():
		return int(in.Imm), true
	}
	return 0, false
}

// WithTarget returns a copy of the instruction with its statically-known
// control-transfer target replaced by the absolute word index target,
// given the instruction's own word index pc. It fails for non-control
// and indirect instructions, and when the new target is out of encoding
// range.
func (in Instruction) WithTarget(pc, target int) (Instruction, error) {
	out := in
	switch {
	case in.IsBranch():
		off := target - pc - 1
		if off < immMin16 || off > immMax16 {
			return Instruction{}, fmt.Errorf("%w: branch offset %d", ErrImmRange, off)
		}
		out.Imm = int32(off)
	case in.IsJump():
		if target < 0 || target > jmpMax26 {
			return Instruction{}, fmt.Errorf("%w: jump target %d", ErrImmRange, target)
		}
		out.Imm = int32(target)
	default:
		return Instruction{}, fmt.Errorf("isa: %s has no static target", in.Op)
	}
	return out, nil
}
