// Package asm implements an assembler for ERI32 assembly text.
//
// The source language is one statement per line:
//
//	; comment                     (also "#" and "//" comments)
//	label:                        (labels may share a line with an instruction)
//	add  r1, r2, r3               (R-format)
//	addi r1, r2, -5               (I-format ALU)
//	lw   r1, 8(r2)                (loads/stores use displacement syntax)
//	beq  r1, r2, label            (branch targets are labels or numbers)
//	j    label
//	.word 0xdeadbeef              (raw data word)
//	.equ  NAME, 42                (assembly-time constant)
//	.align 4                      (pad with nops to a word multiple)
//
// A char literal ('c', exactly one byte between quotes) is one token:
// the comment, label, operand and displacement separators
// (; # // : , ( ) inside it are literal characters.
//
// Assemble reads the source once, front to back, and each line in one
// forward pass: it peels the labels, resolves the mnemonic and parses
// every operand as it reaches it, so a statement is encoded as soon as
// it is read. An operand that names a label or .equ constant is patched
// after the scan from the final tables, which is what lets it refer
// forward. Diagnostics follow the two-pass rule: a layout error (a bad
// label, mnemonic or directive, or a malformed .equ, .align or .word)
// anywhere wins over any operand error, and of the operand errors the
// first in source order is reported. All addresses are word indices
// (the ERI32 convention).
package asm

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"unicode"
	"unicode/utf8"

	"apbcc/internal/isa"
)

// Result is an assembled program: its instruction words and the symbol
// table mapping labels to word addresses.
type Result struct {
	Words   []uint32
	Symbols map[string]int
	// Labels lists the symbols in source order, which is nondecreasing
	// address order.
	Labels []Symbol
	// Ins is Words decoded: each statement's instruction, nops for
	// .align padding and isa.Decode of every .word value. It is nil if
	// a .word value is no instruction.
	Ins []isa.Instruction
}

// Symbol is one label and its word address.
type Symbol struct {
	Name string
	Addr int
}

// Error is an assembly diagnostic carrying the 1-based source line.
type Error struct {
	Line int
	Msg  string
}

// Error implements the error interface.
func (e *Error) Error() string { return fmt.Sprintf("asm: line %d: %s", e.Line, e.Msg) }

func errf(line int, format string, args ...any) *Error {
	return &Error{Line: line, Msg: fmt.Sprintf(format, args...)}
}

// maxWords bounds a program's layout (4 MiB of code). A larger layout
// is rejected at the line that crosses it, so a short hostile source
// (".align 0x7fffffffffffffff") cannot make the assembler allocate
// without bound.
const maxWords = 1 << 20

// maxPresize caps the up-front sizing of the output and symbol tables,
// so a source of nothing but newlines or colons cannot buy a large
// allocation; real programs fit and never grow them.
const maxPresize = 1024

// Byte classes of the scanner.
const (
	cSpace   uint8 = 1 << iota // ASCII white space but '\n': TrimSpace drops it
	cStop                      // ends every token: ':' or a statement end, or a quote or '/' to check
	cBlank                     // ends the mnemonic: ' ', '\t'
	cComma                     // ends an operand field
	cEnd                       // ends a statement outright: '\n', ';', '#'
	cIdent                     // may continue an identifier: letter, digit, '_', '.'
	cDigit                     // decimal digit
	cOperand                   // may appear in a plain operand: cIdent, '-', '+', '(', ')'
)

var class = func() (t [256]uint8) {
	for _, c := range " \t\r\v\f" {
		t[c] |= cSpace
	}
	for _, c := range ":\n;#/'" {
		t[c] |= cStop
	}
	for _, c := range "\n;#" {
		t[c] |= cEnd
	}
	t[' '] |= cBlank
	t['\t'] |= cBlank
	t[','] |= cComma
	for c := 0; c < 256; c++ {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == '.':
			t[c] |= cIdent | cOperand
		case c >= '0' && c <= '9':
			t[c] |= cIdent | cDigit | cOperand
		case c == '-', c == '+', c == '(', c == ')':
			t[c] |= cOperand
		}
	}
	return t
}()

// argKind says what an operand field holds and where it goes.
type argKind uint8

const (
	argRd     argKind = iota // register into Rd
	argRs1                   // register into Rs1
	argRs2                   // register into Rs2
	argImm                   // immediate: number, char literal, label or .equ name
	argTarget                // control-transfer target: label or number
	argMem                   // disp(base): Imm and Rs1
	argWord                  // a .word value
)

// form is an opcode's operand list and the text of its count error.
type form struct {
	args []argKind
	want string
}

var forms = func() (t [isa.NumOpcodes]form) {
	for op := isa.Opcode(0); int(op) < isa.NumOpcodes; op++ {
		switch op.Format() {
		case isa.FormatR:
			t[op] = form{[]argKind{argRd, argRs1, argRs2}, "wants rd, rs1, rs2"}
		case isa.FormatI:
			t[op] = form{[]argKind{argRd, argRs1, argImm}, "wants rd, rs1, imm"}
		case isa.FormatB:
			t[op] = form{[]argKind{argRs1, argRs2, argTarget}, "wants rs1, rs2, target"}
		case isa.FormatJ:
			t[op] = form{[]argKind{argTarget}, "wants one target"}
		}
	}
	for _, op := range []isa.Opcode{isa.OpLW, isa.OpLH, isa.OpLB, isa.OpSW, isa.OpSH, isa.OpSB} {
		t[op] = form{[]argKind{argRd, argMem}, "wants rd, disp(base)"}
	}
	t[isa.OpNOP] = form{nil, "takes no operands"}
	t[isa.OpHALT] = form{nil, "takes no operands"}
	t[isa.OpJR] = form{[]argKind{argRs1}, "wants one register"}
	t[isa.OpJALR] = form{[]argKind{argRd, argRs1}, "wants rd, rs1"}
	t[isa.OpSYS] = form{[]argKind{argImm}, "wants one immediate"}
	t[isa.OpLUI] = form{[]argKind{argRd, argImm}, "wants rd, imm"}
	return t
}()

// fixup is an operand naming a label or .equ constant, resolved once
// the scan has built both tables.
type fixup struct {
	name string
	at   int32   // word address of the statement's word
	line int32   // 1-based source line
	ord  int32   // check order within the line (see assembler.fail)
	kind argKind // argImm, argTarget or argWord
}

// fixupTables recycles fixup lists: a list lives only for one Assemble
// call. Lists past maxPresize entries are dropped, not kept.
var fixupTables = sync.Pool{New: func() any { return new([]fixup) }}

// assembler is the state of one Assemble call.
type assembler struct {
	src  string
	pos  int // start of the next line
	line int // 1-based line being scanned
	stmt int // start of the statement after the line's labels

	words   []uint32
	ins     []isa.Instruction
	symbols map[string]int
	labels  []Symbol
	equs    map[string]int64
	fixups  []fixup
	badWord bool // a .word value decodes to no instruction

	// err is the first operand error; it is reported if the layout
	// holds. errOrd orders the checks within err's line.
	err    *Error
	errOrd int32
}

// Assemble translates ERI32 assembly source into a program image.
func Assemble(src string) (*Result, error) {
	// Each statement costs a line and each label a ':': up to
	// maxPresize, no table grows during the scan.
	n := min(strings.Count(src, "\n")+1, maxPresize)
	nl := min(strings.Count(src, ":"), maxPresize)
	a := assembler{
		src:     src,
		words:   make([]uint32, 0, n),
		ins:     make([]isa.Instruction, 0, n),
		symbols: make(map[string]int, nl),
		labels:  make([]Symbol, 0, nl),
	}
	table := fixupTables.Get().(*[]fixup)
	a.fixups = (*table)[:0]
	defer func() {
		if cap(a.fixups) <= maxPresize {
			clear(a.fixups[:cap(a.fixups)]) // drop the references into src
			*table = a.fixups[:0]
			fixupTables.Put(table)
		}
	}()

	for a.line = 1; a.pos < len(src); a.line++ {
		if err := a.scanLine(); err != nil {
			return nil, err
		}
	}
	a.resolve()
	if a.err != nil {
		return nil, a.err
	}
	r := &Result{Words: a.words, Symbols: a.symbols, Labels: a.labels, Ins: a.ins}
	if a.badWord {
		r.Ins = nil
	}
	return r, nil
}

// scanLine scans the line at a.pos: its labels and at most one
// statement. It returns a layout error; operand errors go to a.fail.
func (a *assembler) scanLine() error {
	s := a.src
	i := a.pos
	if i < len(s) && class[s[i]]&cBlank != 0 { // the usual indent
		i++
	}
	if i < len(s) && (class[s[i]]&cSpace != 0 || s[i] >= utf8.RuneSelf) {
		i = skipSpace(s, i)
	}
	// Peel labels: a token followed by ':'.
	var j, k int
	for {
		a.stmt = i
		// A run of identifier bytes usually makes the whole token, and
		// then needs no trimming.
		for j = i; j < len(s) && class[s[j]]&cIdent != 0; j++ {
		}
		plain := true
		if j < len(s) && class[s[j]]&(cBlank|cEnd) == 0 && s[j] != ':' {
			j, plain = scan(s, j, cStop|cBlank), false
		}
		k = j
		if j < len(s) && class[s[j]]&cBlank != 0 {
			if k = j + 1; k < len(s) && (class[s[k]]&cSpace != 0 || s[k] >= utf8.RuneSelf) {
				k = skipSpace(s, k)
			}
		}
		if k == len(s) || s[k] != ':' {
			if !plain && endAt(s, k) { // only white space follows: the line's trim ends it
				j = trimRight(s, i, j)
			}
			break
		}
		name := s[i:j]
		if !plain {
			name = s[i:trimRight(s, i, j)]
		}
		if err := a.label(name); err != nil {
			return err
		}
		i = skipSpace(s, k+1)
	}
	mnem := s[i:j]
	var err error
	if op, ok := isa.OpcodeByName(mnem); ok {
		if end, ok := a.quick(op, k); ok {
			k = end
		} else {
			k, err = a.instruction(op, k)
		}
	} else if mnem != "" {
		switch mnem = strings.ToLower(mnem); {
		case mnem[0] != '.':
			if op, ok = isa.OpcodeByName(mnem); !ok {
				return a.layoutErr(k, errf(a.line, "unknown mnemonic %q", mnem))
			}
			k, err = a.instruction(op, k)
		case mnem == ".word":
			k, err = a.word(k)
		case mnem == ".equ":
			k, err = a.equ(k)
		case mnem == ".align":
			k, err = a.align(k)
		default:
			return a.layoutErr(k, errf(a.line, "unknown directive %q", mnem))
		}
	}
	if err != nil {
		return err
	}
	if len(a.words) > maxWords {
		return errf(a.line, "program exceeds %d words", maxWords)
	}
	// k is the statement end: the newline, a comment or the source end.
	if k < len(s) && s[k] == '\n' {
		a.pos = k + 1
	} else if nl := strings.IndexByte(s[k:], '\n'); nl >= 0 {
		a.pos = k + nl + 1
	} else {
		a.pos = len(s)
	}
	return nil
}

// label defines name at the current address.
func (a *assembler) label(name string) error {
	if !validIdent(name) {
		return errf(a.line, "invalid label %q", name)
	}
	n := len(a.symbols)
	if a.symbols[name] = len(a.words); len(a.symbols) == n {
		return errf(a.line, "duplicate label %q", name)
	}
	a.labels = append(a.labels, Symbol{Name: name, Addr: len(a.words)})
	return nil
}

// layoutErr returns err, unless a ':' follows at or after i in the
// statement: the text before it is then an invalid label, which a
// two-pass assembler finds first.
func (a *assembler) layoutErr(i int, err *Error) error {
	if j := scan(a.src, i, cStop); j < len(a.src) && a.src[j] == ':' {
		return a.badLabel(j)
	}
	return err
}

// badLabel is the error for a ':' at j after the statement began.
func (a *assembler) badLabel(j int) error {
	return errf(a.line, "invalid label %q", strings.TrimSpace(a.src[a.stmt:j]))
}

// field finds the operand field starting at i, past its leading space:
// it is a.src[i:hi], trimmed, and j is the ',' or statement end after
// it.
func (a *assembler) field(i int) (hi, j int, err error) {
	s := a.src
	// A field of plain operand bytes ending at a comma or the statement
	// end needs no trimming: the usual register, number or label.
	for j = i; j < len(s) && class[s[j]]&cOperand != 0; j++ {
	}
	if j == len(s) || class[s[j]]&(cComma|cEnd) != 0 {
		return j, j, nil
	}
	j = scan(s, j, cStop|cComma)
	if j < len(s) && s[j] == ':' {
		return 0, 0, a.badLabel(j)
	}
	return trimRight(s, i, j), j, nil
}

// next steps past the ',' at j to the next field, or reports the
// statement end.
func (a *assembler) next(j int) (int, bool) {
	if j < len(a.src) && a.src[j] == ',' {
		return skipSpace(a.src, j+1), true
	}
	return j, false
}

// fail records an operand error at line, ord: the first line's error
// is kept, and within a line the error of the check a two-pass
// assembler makes first (lowest ord). The operand count is checked
// first (ord 0), then the fields in order (1, 2, ...), then the
// encoding.
func (a *assembler) fail(line int, ord int32, e *Error) {
	if a.err == nil || line < a.err.Line || line == a.err.Line && ord < a.errOrd {
		a.err, a.errOrd = e, ord
	}
}

// instruction scans the operands of op starting at i and emits its
// word, or a placeholder that resolve patches.
func (a *assembler) instruction(op isa.Opcode, i int) (int, error) {
	s := a.src
	args := forms[op].args
	in := isa.Instruction{Op: op}
	at := len(a.words)
	pending := false
	nf := 0
	for more := !endAt(s, i); more; nf++ {
		hi, j, err := a.field(i)
		if err != nil {
			return 0, err
		}
		if nf < len(args) {
			f, ord := s[i:hi], int32(nf+1)
			switch k := args[nf]; k {
			case argRd, argRs1, argRs2:
				r, ok := parseReg(f)
				if !ok {
					a.fail(a.line, ord, errf(a.line, "bad register %q", f))
				}
				switch k {
				case argRd:
					in.Rd = r
				case argRs1:
					in.Rs1 = r
				default:
					in.Rs2 = r
				}
			default:
				pending = a.value(k, f, &in, at, ord) || pending
			}
		}
		i, more = a.next(j)
	}
	if nf != len(args) {
		a.fail(a.line, 0, errf(a.line, "%s %s", op, forms[op].want))
	}
	var w uint32
	if !pending {
		var err error
		if w, err = in.Encode(); err != nil {
			a.fail(a.line, 4, errf(a.line, "%v", err))
		}
	}
	a.words = append(a.words, w)
	a.ins = append(a.ins, in)
	return i, nil
}

// quick assembles the statement of op at i if it has the usual shape:
// its operands are plain registers, decimals of at most three digits
// and labels separated by ", " or ",", and white space, a comment or
// the line end ends it. It reads a register or decimal without a loop.
// On that shape it gives the general path's result; on any other it
// reports false and changes nothing, and the general path reads the
// statement's operands again.
func (a *assembler) quick(op isa.Opcode, i int) (int, bool) {
	s := a.src
	in := isa.Instruction{Op: op}
	at := len(a.words)
	var sym fixup
	var regs [argRs2 + 1]isa.Reg // by argKind
	for n, k := range forms[op].args {
		if n > 0 {
			if i+1 >= len(s) || s[i] != ',' {
				return 0, false
			}
			if i++; s[i] == ' ' {
				i++
			}
		}
		switch k {
		case argRd, argRs1, argRs2:
			r, w, ok := quickReg(s, i)
			if !ok {
				return 0, false
			}
			i += w
			regs[k] = r
			continue
		case argMem:
			var v int64
			if i < len(s) && s[i] != '(' {
				var w int
				var ok bool
				if v, w, ok = quickInt(s, i); !ok {
					return 0, false
				}
				i += w
			}
			if i+2 >= len(s) || s[i] != '(' {
				return 0, false
			}
			r, w, ok := quickReg(s, i+1)
			if i += 1 + w; !ok || i >= len(s) || s[i] != ')' {
				return 0, false
			}
			i++
			regs[argRs1], in.Imm = r, int32(v)
			continue
		}
		if i < len(s) && class[s[i]]&(cIdent|cDigit) == cIdent {
			// A label or constant: identifier bytes, led by no digit.
			j := i + 1
			for j < len(s) && class[s[j]]&cIdent != 0 {
				j++
			}
			sym = fixup{name: s[i:j], at: int32(at), line: int32(a.line), ord: int32(n + 1), kind: k}
			i = j
			continue
		}
		v, w, ok := quickInt(s, i)
		if !ok || setImm(&in, v, at) != "" {
			return 0, false
		}
		i += w
	}
	if i < len(s) && s[i] != '\n' && !endAt(s, skipSpace(s, i)) {
		return 0, false
	}
	in.Rd, in.Rs1, in.Rs2 = regs[argRd], regs[argRs1], regs[argRs2]
	var w uint32
	if sym.name != "" {
		a.fixups = append(a.fixups, sym)
	} else {
		var err error
		if w, err = in.Encode(); err != nil {
			return 0, false
		}
	}
	a.words = append(a.words, w)
	a.ins = append(a.ins, in)
	return i, true
}

// quickReg parses the register name at s[i:]: r and one decimal digit,
// or two below isa.NumRegs. w is its length.
func quickReg(s string, i int) (r isa.Reg, w int, ok bool) {
	if i+2 >= len(s) {
		return 0, 0, false
	}
	d, e := uint64(s[i+1]-'0'), uint64(s[i+2]-'0')
	two := (e - 10) >> 63 // 1 if a second digit follows
	n := d + two*(9*d+e)
	return isa.Reg(n), 2 + int(two), s[i]|0x20 == 'r' && d < 10 && n < isa.NumRegs
}

// digit is 1 if c is a decimal digit, else 0.
func digit(c byte) uint8 { return class[c] & cDigit / cDigit }

// quickInt parses the decimal at s[i:]: an optional '-' and one to
// three digits, with no leading zero, which is what shortDecimal reads
// them as. w is its length.
func quickInt(s string, i int) (v int64, w int, ok bool) {
	if i+4 >= len(s) {
		return 0, 0, false
	}
	neg := int(uint64(s[i]^'-')-1) >> 63 & 1 // 1 after a '-', branch-free
	p := i + neg
	d0, d1, d2 := int64(s[p])-'0', int64(s[p+1])-'0', int64(s[p+2])-'0'
	k0 := digit(s[p])
	k1 := k0 & digit(s[p+1])
	nd := int(k0 + k1 + k1&digit(s[p+2]))
	v = [4]int64{0, d0, 10*d0 + d1, 100*d0 + 10*d1 + d2}[nd]
	v = (v ^ -int64(neg)) + int64(neg) // -v after a '-'
	return v, neg + nd, nd > 0 && (d0 != 0 || nd == 1)
}

// value parses value field f of kind k (argImm, argTarget or argMem)
// into in, the instruction at word address at. It reports whether f
// names a symbol, left for resolve.
func (a *assembler) value(k argKind, f string, in *isa.Instruction, at int, ord int32) bool {
	if k == argMem {
		disp, base, err := parseDisp(f)
		if err != nil {
			a.fail(a.line, ord, errf(a.line, "%v", err))
			return false
		}
		r, ok := parseReg(base)
		if !ok {
			a.fail(a.line, ord, errf(a.line, "bad register %q", base))
			return false
		}
		in.Rs1 = r
		f, k = disp, argImm
	}
	if validIdent(f) {
		a.fixups = append(a.fixups, fixup{name: f, at: int32(at), line: int32(a.line), ord: ord, kind: k})
		return true
	}
	v, err := parseInt(f, nil)
	if err != nil {
		if k == argTarget {
			a.fail(a.line, ord, errf(a.line, "unknown target %q", f))
		} else {
			a.fail(a.line, ord, errf(a.line, "immediate %q: %v", f, err))
		}
		return false
	}
	if e := setImm(in, v, at); e != "" {
		a.fail(a.line, ord, &Error{Line: a.line, Msg: e})
	}
	return false
}

// setImm stores operand value v in the immediate of in, at word address
// at: a branch holds the offset from the next word. Like a .word value,
// an operand holds -2^31..2^32-1 and is taken as a 32-bit two's
// complement value, so 0xffffffff is -1; a value outside that range is
// reported here rather than wrapped into a different one.
func setImm(in *isa.Instruction, v int64, at int) string {
	if !fits32(v) {
		what := "immediate"
		if f := in.Op.Format(); f == isa.FormatB || f == isa.FormatJ {
			what = "target"
		}
		return fmt.Sprintf("%s %s %d does not fit in 32 bits", in.Op, what, v)
	}
	if in.Op.Format() == isa.FormatB {
		v -= int64(at) + 1
	}
	in.Imm = int32(v)
	return ""
}

// fits32 reports whether v is -2^31..2^32-1: a 32-bit value read as
// signed or unsigned.
func fits32(v int64) bool { return v >= -1<<31 && v <= 1<<32-1 }

// word scans the values of a .word statement starting at i.
func (a *assembler) word(i int) (int, error) {
	if endAt(a.src, i) {
		return 0, errf(a.line, ".word wants at least one value")
	}
	for more, ord := true, int32(0); more; ord++ {
		if len(a.words) == maxWords {
			return 0, a.layoutErr(i, errf(a.line, "program exceeds %d words", maxWords))
		}
		hi, j, err := a.field(i)
		if err != nil {
			return 0, err
		}
		f := a.src[i:hi]
		at := len(a.words)
		a.words = append(a.words, 0)
		a.ins = append(a.ins, isa.Instruction{})
		if validIdent(f) {
			a.fixups = append(a.fixups, fixup{name: f, at: int32(at), line: int32(a.line), ord: ord, kind: argWord})
		} else if v, err := parseInt(f, nil); err != nil {
			a.fail(a.line, ord, errf(a.line, ".word value %q: %v", f, err))
		} else {
			a.setWord(at, v, f, a.line, ord)
		}
		i, more = a.next(j)
	}
	return i, nil
}

// setWord stores .word value v, written as f, at word address at. A
// word holds -2^31..2^32-1.
func (a *assembler) setWord(at int, v int64, f string, line int, ord int32) {
	if !fits32(v) {
		a.fail(line, ord, errf(line, ".word value %q: %d does not fit in 32 bits", f, v))
		return
	}
	a.words[at] = uint32(v)
	in, err := isa.Decode(uint32(v))
	a.ins[at] = in
	a.badWord = a.badWord || err != nil
}

// directive scans the fields of a .equ or .align statement starting at
// i, keeping the first two; nf counts them.
func (a *assembler) directive(i int) (f [2]string, nf, end int, err error) {
	for more := !endAt(a.src, i); more; nf++ {
		hi, j, err := a.field(i)
		if err != nil {
			return f, 0, 0, err
		}
		if nf < len(f) {
			f[nf] = a.src[i:hi]
		}
		i, more = a.next(j)
	}
	return f, nf, i, nil
}

// equ scans a .equ statement starting at i.
func (a *assembler) equ(i int) (int, error) {
	f, nf, end, err := a.directive(i)
	switch {
	case err != nil:
		return 0, err
	case nf != 2:
		return 0, errf(a.line, ".equ wants NAME, VALUE")
	case !validIdent(f[0]):
		return 0, errf(a.line, "invalid .equ name %q", f[0])
	}
	v, err := parseInt(f[1], a.equs)
	if err != nil {
		return 0, errf(a.line, ".equ value: %v", err)
	}
	if a.equs == nil {
		a.equs = make(map[string]int64)
	}
	a.equs[f[0]] = v
	return end, nil
}

// align scans a .align statement starting at i and pads with nops.
func (a *assembler) align(i int) (int, error) {
	f, nf, end, err := a.directive(i)
	if err != nil {
		return 0, err
	}
	if nf != 1 {
		return 0, errf(a.line, ".align wants one argument")
	}
	n, err := parseInt(f[0], a.equs)
	if err != nil || n <= 0 {
		return 0, errf(a.line, "bad .align argument %q", f[0])
	}
	addr := len(a.words)
	pad := (int(n) - addr%int(n)) % int(n)
	if pad > maxWords-addr {
		return 0, errf(a.line, "program exceeds %d words", maxWords)
	}
	nop := isa.Instruction{Op: isa.OpNOP}
	w := nop.MustEncode()
	for range pad {
		a.words = append(a.words, w)
		a.ins = append(a.ins, nop)
	}
	return end, nil
}

// resolve patches every operand that names a symbol, now that the
// label and .equ tables are complete. An instruction operand is a label
// first, then a constant; a .word value is a constant first.
func (a *assembler) resolve() {
	for _, f := range a.fixups {
		line := int(f.line)
		if f.kind == argWord {
			v, ok := a.equs[f.name]
			if !ok {
				var addr int
				addr, ok = a.symbols[f.name]
				v = int64(addr)
			}
			if !ok {
				_, err := strconv.ParseInt(f.name, 0, 64)
				a.fail(line, f.ord, errf(line, ".word value %q: %v", f.name, err))
				continue
			}
			a.setWord(int(f.at), v, f.name, line, f.ord)
			continue
		}
		addr, ok := a.symbols[f.name]
		v := int64(addr)
		if !ok {
			v, ok = a.equs[f.name]
		}
		in := &a.ins[f.at]
		switch {
		case !ok && f.kind == argTarget:
			a.fail(line, f.ord, errf(line, "unknown target %q", f.name))
		case !ok:
			_, err := strconv.ParseInt(f.name, 0, 64)
			a.fail(line, f.ord, errf(line, "immediate %q: %v", f.name, err))
		default:
			if e := setImm(in, v, int(f.at)); e != "" {
				a.fail(line, f.ord, &Error{Line: line, Msg: e})
				continue
			}
			w, err := in.Encode()
			if err != nil {
				a.fail(line, 4, errf(line, "%v", err))
				continue
			}
			a.words[f.at] = w
		}
	}
}

// scan returns the index of the first byte at or after i, outside char
// literals, whose class is in stop: a ':' or statement end (cStop),
// or also a blank (cBlank) or comma (cComma). A lone '/' is no stop.
// It returns len(s) if there is none.
func scan(s string, i int, stop uint8) int {
	for ; i < len(s); i++ {
		if class[s[i]]&stop == 0 {
			continue
		}
		switch s[i] {
		case '\'':
			if isCharLit(s, i) {
				i += 2
			}
		case '/':
			if i+1 < len(s) && s[i+1] == '/' {
				return i
			}
		default:
			return i
		}
	}
	return len(s)
}

// endAt reports whether the statement ends at i: the source or line
// ends, or a comment starts.
func endAt(s string, i int) bool {
	if i == len(s) {
		return true
	}
	switch s[i] {
	case '\n', ';', '#':
		return true
	case '/':
		return i+1 < len(s) && s[i+1] == '/'
	}
	return false
}

// skipSpace returns the index of the first byte at or after i that
// strings.TrimSpace would keep, never past a newline.
func skipSpace(s string, i int) int {
	for i < len(s) {
		if c := s[i]; class[c]&cSpace != 0 {
			i++
			continue
		} else if c < utf8.RuneSelf {
			return i
		}
		r, n := utf8.DecodeRuneInString(s[i:])
		if !unicode.IsSpace(r) {
			return i
		}
		i += n
	}
	return i
}

// trimRight returns the end of s[i:j] with trailing white space
// dropped, as strings.TrimSpace drops it.
func trimRight(s string, i, j int) int {
	for j > i {
		if c := s[j-1]; class[c]&cSpace != 0 {
			j--
			continue
		} else if c < utf8.RuneSelf {
			return j
		}
		r, n := utf8.DecodeLastRuneInString(s[i:j])
		if !unicode.IsSpace(r) {
			return j
		}
		j -= n
	}
	return j
}

// isCharLit reports whether s[i:] starts with a char literal: a quote,
// one byte other than a newline, a quote.
func isCharLit(s string, i int) bool {
	return s[i] == '\'' && i+2 < len(s) && s[i+1] != '\n' && s[i+2] == '\''
}

// validIdent reports whether s is an identifier: a letter, '_' or
// '.', then letters, digits, '_' and '.'.
func validIdent(s string) bool {
	if s == "" || class[s[0]]&(cIdent|cDigit) != cIdent {
		return false
	}
	for i := 1; i < len(s); i++ {
		if class[s[i]]&cIdent == 0 {
			return false
		}
	}
	return true
}

// parseReg parses a register name: r or R and a decimal below
// isa.NumRegs.
func parseReg(s string) (isa.Reg, bool) {
	if len(s) < 2 || (s[0] != 'r' && s[0] != 'R') {
		return 0, false
	}
	// Fast path for the usual one or two decimal digits; anything else
	// (signs, leading zeros, junk) takes Atoi.
	if d := s[1] - '0'; d < 10 {
		if len(s) == 2 {
			return isa.Reg(d), true
		}
		if e := s[2] - '0'; len(s) == 3 && e < 10 && 10*int(d)+int(e) < isa.NumRegs {
			return isa.Reg(10*d + e), true
		}
	}
	n, err := strconv.Atoi(s[1:])
	if err != nil || n < 0 || n >= isa.NumRegs {
		return 0, false
	}
	return isa.Reg(n), true
}

// parseInt parses decimal, hex (0x), binary (0b) and char ('c')
// literals, and .equ constant names.
func parseInt(s string, equs map[string]int64) (int64, error) {
	// The common operand, a short decimal, skips ParseInt. It starts
	// with a digit or sign, so it cannot be an .equ name either.
	if v, ok := shortDecimal(s); ok {
		return v, nil
	}
	if v, ok := equs[s]; ok {
		return v, nil
	}
	if len(s) >= 3 && s[0] == '\'' && s[len(s)-1] == '\'' {
		inner := s[1 : len(s)-1]
		if len(inner) != 1 {
			return 0, fmt.Errorf("bad char literal %q", s)
		}
		return int64(inner[0]), nil
	}
	return strconv.ParseInt(s, 0, 64)
}

// shortDecimal parses an optionally signed decimal of at most 18
// digits with no leading zero (or a lone zero): the literals on which
// strconv.ParseInt(s, 0, 64) needs no base prefix, octal rule or
// underscore check. ok is false for anything else.
func shortDecimal(s string) (v int64, ok bool) {
	digits := s
	if len(s) > 0 && (s[0] == '-' || s[0] == '+') {
		digits = s[1:]
	}
	if len(digits) == 0 || len(digits) > 18 || digits[0] == '0' && len(digits) > 1 {
		return 0, false
	}
	for i := 0; i < len(digits); i++ {
		d := digits[i] - '0'
		if d > 9 {
			return 0, false
		}
		v = 10*v + int64(d)
	}
	if s[0] == '-' {
		v = -v
	}
	return v, true
}

// parseDisp splits "disp(base)" into its two components. The base
// opens at the first '(' outside a char literal, so '(' is a legal
// displacement.
func parseDisp(s string) (disp, base string, err error) {
	open := -1
	for i := 0; i < len(s) && open < 0; i++ {
		switch {
		case s[i] == '(':
			open = i
		case isCharLit(s, i):
			i += 2
		}
	}
	if open < 0 || !strings.HasSuffix(s, ")") {
		return "", "", fmt.Errorf("bad displacement operand %q, want disp(base)", s)
	}
	disp = strings.TrimSpace(s[:open])
	if disp == "" {
		disp = "0"
	}
	base = strings.TrimSpace(s[open+1 : len(s)-1])
	return disp, base, nil
}
