// Package asm implements a two-pass assembler for ERI32 assembly text.
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
// the comment, label and operand separators (; # // : ,) inside it are
// literal characters.
//
// Pass one scans the source once, records label addresses and lays out
// every statement with its opcode resolved and its operands split;
// pass two encodes. All addresses are word indices (the ERI32
// convention).
package asm

import (
	"fmt"
	"strconv"
	"strings"
	"sync"

	"apbcc/internal/isa"
)

// Result is an assembled program: its instruction words and the symbol
// table mapping labels to word addresses.
type Result struct {
	Words   []uint32
	Symbols map[string]int
}

// Error is an assembly diagnostic carrying the 1-based source line.
type Error struct {
	Line int
	Msg  string
}

// Error implements the error interface.
func (e *Error) Error() string { return fmt.Sprintf("asm: line %d: %s", e.Line, e.Msg) }

func errf(line int, format string, args ...any) error {
	return &Error{Line: line, Msg: fmt.Sprintf(format, args...)}
}

// maxWords bounds a program's layout (4 MiB of code). A larger layout
// is rejected at the line that crosses it, so a short hostile source
// (".align 0x7fffffffffffffff") cannot make pass two allocate without
// bound.
const maxWords = 1 << 20

// maxPresize caps the up-front sizing of the symbol and statement
// tables, so a source of nothing but newlines or colons cannot buy a
// large allocation; real programs fit and never grow either table.
const maxPresize = 1024

// stmtKind says how pass two emits a statement.
type stmtKind uint8

const (
	stmtOp    stmtKind = iota // one instruction word
	stmtWord                  // .word: one word per value
	stmtAlign                 // .align: pad nops
)

// statement is one laid-out line: the mnemonic resolved and the
// operand list split. The operands stay a window of the source, rest;
// pass one records how many fields it has and where the first two
// commas sit, so pass two slices the fields out without scanning
// again (every instruction takes at most three fields, and nf alone
// rejects a longer list). The struct holds one pointer, so the table
// is cheap to allocate and to scan.
type statement struct {
	rest string   // operand list, trimmed
	line int      // 1-based source line
	addr int32    // word address
	nf   int32    // operand field count
	sep  [2]int32 // offsets in rest of the first two field commas, else len(rest)
	pad  int32    // stmtAlign nop count
	op   isa.Opcode
	kind stmtKind
}

// layout splits rest into the statement's operand fields: one pass
// counts the commas outside char literals and notes the first two.
func (st *statement) layout(rest string) {
	st.rest = rest
	st.sep = [2]int32{int32(len(rest)), int32(len(rest))}
	if rest == "" {
		return
	}
	st.nf = 1
	for i := 0; i < len(rest); i++ {
		switch c := rest[i]; {
		case c == ',':
			if int(st.nf) <= len(st.sep) {
				st.sep[st.nf-1] = int32(i)
			}
			st.nf++
		case c == '\'' && isCharLit(rest, i):
			i += 2
		}
	}
}

// field returns operand field i < min(nf, 3), trimmed. An empty list
// has no fields; every comma adds one, so "a,,b" has three and "," two.
func (st *statement) field(i int) string {
	lo, hi := 0, len(st.rest)
	if i > 0 {
		lo = int(st.sep[i-1]) + 1
	}
	if i < len(st.sep) {
		hi = int(st.sep[i])
	}
	return strings.TrimSpace(st.rest[lo:hi])
}

// stmtTables recycles statement tables: a table lives only for one
// Assemble call, and a fresh one was 40% of the call's allocation.
// Tables past maxPresize entries are dropped, not kept.
var stmtTables = sync.Pool{New: func() any { return new([]statement) }}

// Assemble translates ERI32 assembly source into a program image.
func Assemble(src string) (*Result, error) {
	// Each label costs a ':', each statement a line: up to maxPresize,
	// neither table grows during the scan.
	symbols := make(map[string]int, min(strings.Count(src, ":"), maxPresize))
	table := stmtTables.Get().(*[]statement)
	stmts := *table
	if n := min(strings.Count(src, "\n")+1, maxPresize); cap(stmts) < n {
		stmts = make([]statement, 0, n)
	}
	defer func() {
		if cap(stmts) <= maxPresize {
			clear(stmts[:cap(stmts)]) // drop the references into src
			*table = stmts[:0]
			stmtTables.Put(table)
		}
	}()
	var equs map[string]int64

	// Pass one: strip comments, collect labels, lay out addresses.
	addr := 0
	for lineNo, more := 1, true; more; lineNo++ {
		var line string
		var quoted bool
		line, src, more, quoted = nextLine(src)
		line = strings.TrimSpace(line)
		// Peel labels; several may prefix one statement.
		for {
			i := indexSep(line, ':', quoted)
			if i < 0 {
				break
			}
			label := strings.TrimSpace(line[:i])
			if !validIdent(label) {
				return nil, errf(lineNo, "invalid label %q", label)
			}
			if _, dup := symbols[label]; dup {
				return nil, errf(lineNo, "duplicate label %q", label)
			}
			symbols[label] = addr
			line = strings.TrimSpace(line[i+1:])
		}
		if line == "" {
			continue
		}
		mnem, rest := line, ""
		if i := indexUnquoted(line, ' ', '\t'); i >= 0 {
			mnem, rest = line[:i], strings.TrimSpace(line[i+1:])
		}
		mnem = strings.ToLower(mnem)
		// Lay the statement out in place; .equ, which emits no code,
		// takes its slot back.
		stmts = append(stmts, statement{line: lineNo, addr: int32(addr)})
		st := &stmts[len(stmts)-1]
		st.layout(rest)
		switch mnem {
		case ".equ":
			if st.nf != 2 {
				return nil, errf(lineNo, ".equ wants NAME, VALUE")
			}
			name := st.field(0)
			if !validIdent(name) {
				return nil, errf(lineNo, "invalid .equ name %q", name)
			}
			v, err := parseInt(st.field(1), equs)
			if err != nil {
				return nil, errf(lineNo, ".equ value: %v", err)
			}
			if equs == nil {
				equs = make(map[string]int64)
			}
			equs[name] = v
			stmts = stmts[:len(stmts)-1]
			continue
		case ".align":
			if st.nf != 1 {
				return nil, errf(lineNo, ".align wants one argument")
			}
			n, err := parseInt(st.field(0), equs)
			if err != nil || n <= 0 {
				return nil, errf(lineNo, "bad .align argument %q", st.field(0))
			}
			pad := (int(n) - addr%int(n)) % int(n)
			if pad > maxWords-addr {
				return nil, errf(lineNo, "program exceeds %d words", maxWords)
			}
			st.kind, st.pad = stmtAlign, int32(pad)
			addr += pad
		case ".word":
			if st.nf == 0 {
				return nil, errf(lineNo, ".word wants at least one value")
			}
			st.kind = stmtWord
			addr += int(st.nf)
		default:
			if strings.HasPrefix(mnem, ".") {
				return nil, errf(lineNo, "unknown directive %q", mnem)
			}
			op, ok := isa.OpcodeByName(mnem)
			if !ok {
				return nil, errf(lineNo, "unknown mnemonic %q", mnem)
			}
			st.op = op
			addr++
		}
		if addr > maxWords {
			return nil, errf(lineNo, "program exceeds %d words", maxWords)
		}
	}

	// Pass two: encode.
	out := make([]uint32, 0, addr)
	for i := range stmts {
		st := &stmts[i]
		switch st.kind {
		case stmtAlign:
			nop := isa.Instruction{Op: isa.OpNOP}.MustEncode()
			for k := int32(0); k < st.pad; k++ {
				out = append(out, nop)
			}
		case stmtWord:
			for rest, more := st.rest, true; more; {
				f := rest
				if i := indexUnquoted(rest, ',', ','); i >= 0 {
					f, rest = rest[:i], rest[i+1:]
				} else {
					more = false
				}
				f = strings.TrimSpace(f)
				v, err := parseInt(f, equs)
				if err != nil {
					// A label is also a legal .word value.
					if a, ok := symbols[f]; ok {
						v = int64(a)
					} else {
						return nil, errf(st.line, ".word value %q: %v", f, err)
					}
				}
				out = append(out, uint32(v))
			}
		default:
			in, err := encodeStatement(st, symbols, equs)
			if err != nil {
				return nil, err
			}
			w, err := in.Encode()
			if err != nil {
				return nil, errf(st.line, "%v", err)
			}
			out = append(out, w)
		}
	}
	if len(out) != addr {
		return nil, fmt.Errorf("asm: internal error: layout %d words, emitted %d", addr, len(out))
	}
	return &Result{Words: out, Symbols: symbols}, nil
}

// encodeStatement builds the Instruction for one mnemonic statement.
func encodeStatement(st *statement, symbols map[string]int, equs map[string]int64) (isa.Instruction, error) {
	op := st.op
	in := isa.Instruction{Op: op}
	line := st.line
	var f [3]string
	for i := range min(int(st.nf), len(f)) {
		f[i] = st.field(i)
	}

	reg := func(s string) (isa.Reg, error) {
		r, err := parseReg(s)
		if err != nil {
			return 0, errf(line, "%v", err)
		}
		return r, nil
	}
	imm := func(s string) (int32, error) {
		// Labels are legal immediates (address materialization, e.g.
		// "addi r1, r0, table" before an indirect jump or load). A label
		// is an identifier, so an operand that cannot start one (a
		// number or char literal) skips the symbol lookup.
		if s != "" && identStart(s[0]) {
			if abs, ok := symbols[s]; ok {
				return int32(abs), nil
			}
		}
		v, err := parseInt(s, equs)
		if err != nil {
			return 0, errf(line, "immediate %q: %v", s, err)
		}
		return int32(v), nil
	}
	// target resolves a label or numeric operand into the encoded
	// immediate for a control transfer at word address st.addr.
	target := func(s string) (int32, error) {
		abs, ok := symbols[s]
		if !ok {
			v, err := parseInt(s, equs)
			if err != nil {
				return 0, errf(line, "unknown target %q", s)
			}
			abs = int(v)
		}
		if op.Format() == isa.FormatB {
			return int32(abs - int(st.addr) - 1), nil
		}
		return int32(abs), nil
	}

	var err error
	switch op {
	case isa.OpNOP, isa.OpHALT:
		if st.nf != 0 {
			return in, errf(line, "%s takes no operands", op)
		}
		return in, nil
	case isa.OpJR:
		if st.nf != 1 {
			return in, errf(line, "jr wants one register")
		}
		in.Rs1, err = reg(f[0])
		return in, err
	case isa.OpJALR:
		if st.nf != 2 {
			return in, errf(line, "jalr wants rd, rs1")
		}
		if in.Rd, err = reg(f[0]); err != nil {
			return in, err
		}
		in.Rs1, err = reg(f[1])
		return in, err
	case isa.OpSYS:
		if st.nf != 1 {
			return in, errf(line, "sys wants one immediate")
		}
		in.Imm, err = imm(f[0])
		return in, err
	case isa.OpLUI:
		if st.nf != 2 {
			return in, errf(line, "lui wants rd, imm")
		}
		if in.Rd, err = reg(f[0]); err != nil {
			return in, err
		}
		in.Imm, err = imm(f[1])
		return in, err
	case isa.OpJ, isa.OpJAL:
		if st.nf != 1 {
			return in, errf(line, "%s wants one target", op)
		}
		in.Imm, err = target(f[0])
		return in, err
	case isa.OpLW, isa.OpLH, isa.OpLB, isa.OpSW, isa.OpSH, isa.OpSB:
		if st.nf != 2 {
			return in, errf(line, "%s wants rd, disp(base)", op)
		}
		if in.Rd, err = reg(f[0]); err != nil {
			return in, err
		}
		disp, base, perr := parseDisp(f[1])
		if perr != nil {
			return in, errf(line, "%v", perr)
		}
		if in.Rs1, err = reg(base); err != nil {
			return in, err
		}
		in.Imm, err = imm(disp)
		return in, err
	}
	switch op.Format() {
	case isa.FormatR:
		if st.nf != 3 {
			return in, errf(line, "%s wants rd, rs1, rs2", op)
		}
		if in.Rd, err = reg(f[0]); err != nil {
			return in, err
		}
		if in.Rs1, err = reg(f[1]); err != nil {
			return in, err
		}
		in.Rs2, err = reg(f[2])
		return in, err
	case isa.FormatI:
		if st.nf != 3 {
			return in, errf(line, "%s wants rd, rs1, imm", op)
		}
		if in.Rd, err = reg(f[0]); err != nil {
			return in, err
		}
		if in.Rs1, err = reg(f[1]); err != nil {
			return in, err
		}
		in.Imm, err = imm(f[2])
		return in, err
	case isa.FormatB:
		if st.nf != 3 {
			return in, errf(line, "%s wants rs1, rs2, target", op)
		}
		if in.Rs1, err = reg(f[0]); err != nil {
			return in, err
		}
		if in.Rs2, err = reg(f[1]); err != nil {
			return in, err
		}
		in.Imm, err = target(f[2])
		return in, err
	}
	return in, errf(line, "unhandled mnemonic %q", op)
}

// lineStop marks the bytes nextLine must look at: the line end, the
// comment markers and the quote that opens a char literal.
var lineStop = [256]bool{'\n': true, ';': true, '#': true, '/': true, '\'': true}

// nextLine splits the first line off src. stmt is that line cut at its
// first comment marker (";", "#" or "//") outside a char literal; rest
// is the source after the newline, and more reports whether there was
// one. quoted reports whether stmt holds a quote: without one there are
// no literals to step over, and every later scan of stmt can use the
// plain string search.
func nextLine(src string) (stmt, rest string, more, quoted bool) {
	for i := 0; i < len(src); i++ {
		for !lineStop[src[i]] {
			if i++; i == len(src) {
				return src, "", false, quoted
			}
		}
		switch src[i] {
		case '\n':
			return src[:i], src[i+1:], true, quoted
		case '/':
			if i+1 == len(src) || src[i+1] != '/' {
				continue
			}
		case '\'':
			quoted = true
			// A literal never spans a line: its middle byte is no newline.
			if i+2 < len(src) && src[i+1] != '\n' && src[i+2] == '\'' {
				i += 2
			}
			continue
		}
		// A comment: the statement ends here, the line at the newline.
		if j := strings.IndexByte(src[i:], '\n'); j >= 0 {
			return src[:i], src[i+j+1:], true, quoted
		}
		return src[:i], "", false, quoted
	}
	return src, "", false, quoted
}

// isCharLit reports whether s[i:] starts with a char literal: a quote,
// one byte, a quote.
func isCharLit(s string, i int) bool {
	return s[i] == '\'' && i+2 < len(s) && s[i+2] == '\''
}

// indexUnquoted returns the index of the first a or b in s outside a
// char literal, or -1.
func indexUnquoted(s string, a, b byte) int {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c == a || c == b:
			return i
		case c == '\'' && isCharLit(s, i):
			i += 2
		}
	}
	return -1
}

// indexSep is indexUnquoted for one separator, on a line that holds a
// quote only if quoted is set.
func indexSep(s string, sep byte, quoted bool) int {
	if !quoted {
		return strings.IndexByte(s, sep)
	}
	return indexUnquoted(s, sep, sep)
}

// identStart reports whether c can start an identifier (see
// validIdent).
func identStart(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_' || c == '.'
}

func validIdent(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_', r == '.':
		case r >= '0' && r <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

func parseReg(s string) (isa.Reg, error) {
	if len(s) < 2 || (s[0] != 'r' && s[0] != 'R') {
		return 0, fmt.Errorf("bad register %q", s)
	}
	// Fast path for the usual one or two decimal digits; anything else
	// (signs, leading zeros, junk) takes Atoi.
	if d := s[1] - '0'; d < 10 {
		if len(s) == 2 {
			return isa.Reg(d), nil
		}
		if e := s[2] - '0'; len(s) == 3 && e < 10 && 10*int(d)+int(e) < isa.NumRegs {
			return isa.Reg(10*d + e), nil
		}
	}
	n, err := strconv.Atoi(s[1:])
	if err != nil || n < 0 || n >= isa.NumRegs {
		return 0, fmt.Errorf("bad register %q", s)
	}
	return isa.Reg(n), nil
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

// parseDisp splits "disp(base)" into its two components.
func parseDisp(s string) (disp, base string, err error) {
	open := strings.Index(s, "(")
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
