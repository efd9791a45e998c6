package asm

// Reference assembler: the split-based two-pass implementation the
// single-scan Assemble replaced, kept verbatim (renamed) as the
// behavioral oracle. FuzzAssembleEquivalence requires the same words,
// symbols and error lines from both. It lives in a test file so the
// shipped binary carries only the fast path.

import (
	"fmt"
	"strconv"
	"strings"

	"apbcc/internal/isa"
)

type refStatement struct {
	line   int      // 1-based source line
	addr   int      // word address
	mnem   string   // mnemonic or directive (without leading dot for .word)
	fields []string // comma-separated operand fields
}

// refAssemble translates ERI32 assembly source into a program image.
func refAssemble(src string) (*Result, error) {
	symbols := make(map[string]int)
	equs := make(map[string]int64)
	var stmts []refStatement

	// Pass one: strip comments, collect labels, lay out addresses.
	addr := 0
	for lineNo, raw := range strings.Split(src, "\n") {
		line := refStripComment(raw)
		line = strings.TrimSpace(line)
		// Peel labels; several may prefix one statement.
		for {
			i := strings.Index(line, ":")
			if i < 0 {
				break
			}
			label := strings.TrimSpace(line[:i])
			if !refValidIdent(label) {
				return nil, errf(lineNo+1, "invalid label %q", label)
			}
			if _, dup := symbols[label]; dup {
				return nil, errf(lineNo+1, "duplicate label %q", label)
			}
			symbols[label] = addr
			line = strings.TrimSpace(line[i+1:])
		}
		if line == "" {
			continue
		}
		mnem, rest := refSplitMnemonic(line)
		st := refStatement{line: lineNo + 1, addr: addr, mnem: mnem, fields: refSplitFields(rest)}
		switch mnem {
		case ".equ":
			if len(st.fields) != 2 {
				return nil, errf(st.line, ".equ wants NAME, VALUE")
			}
			if !refValidIdent(st.fields[0]) {
				return nil, errf(st.line, "invalid .equ name %q", st.fields[0])
			}
			v, err := refParseInt(st.fields[1], equs)
			if err != nil {
				return nil, errf(st.line, ".equ value: %v", err)
			}
			equs[st.fields[0]] = v
			continue // no code emitted
		case ".align":
			if len(st.fields) != 1 {
				return nil, errf(st.line, ".align wants one argument")
			}
			n, err := refParseInt(st.fields[0], equs)
			if err != nil || n <= 0 {
				return nil, errf(st.line, "bad .align argument %q", st.fields[0])
			}
			pad := (int(n) - addr%int(n)) % int(n)
			st.fields = []string{strconv.Itoa(pad)}
			addr += pad
		case ".word":
			if len(st.fields) == 0 {
				return nil, errf(st.line, ".word wants at least one value")
			}
			addr += len(st.fields)
		default:
			if strings.HasPrefix(mnem, ".") {
				return nil, errf(st.line, "unknown directive %q", mnem)
			}
			if _, ok := isa.OpcodeByName(mnem); !ok {
				return nil, errf(st.line, "unknown mnemonic %q", mnem)
			}
			addr++
		}
		stmts = append(stmts, st)
	}

	// Pass two: encode.
	words := make([]uint32, 0, addr)
	for _, st := range stmts {
		switch st.mnem {
		case ".align":
			pad, _ := strconv.Atoi(st.fields[0])
			nop := isa.Instruction{Op: isa.OpNOP}.MustEncode()
			for i := 0; i < pad; i++ {
				words = append(words, nop)
			}
		case ".word":
			for _, f := range st.fields {
				v, err := refParseInt(f, equs)
				if err != nil {
					// A label is also a legal .word value.
					if a, ok := symbols[f]; ok {
						v = int64(a)
					} else {
						return nil, errf(st.line, ".word value %q: %v", f, err)
					}
				}
				words = append(words, uint32(v))
			}
		default:
			in, err := refEncodeStatement(st, symbols, equs)
			if err != nil {
				return nil, err
			}
			w, err := in.Encode()
			if err != nil {
				return nil, errf(st.line, "%v", err)
			}
			words = append(words, w)
		}
	}
	if len(words) != addr {
		return nil, fmt.Errorf("asm: internal error: layout %d words, emitted %d", addr, len(words))
	}
	return &Result{Words: words, Symbols: symbols}, nil
}

// refEncodeStatement builds the Instruction for one mnemonic statement.
func refEncodeStatement(st refStatement, symbols map[string]int, equs map[string]int64) (isa.Instruction, error) {
	op, _ := isa.OpcodeByName(st.mnem)
	in := isa.Instruction{Op: op}
	f := st.fields

	reg := func(s string) (isa.Reg, error) {
		r, err := refParseReg(s)
		if err != nil {
			return 0, errf(st.line, "%v", err)
		}
		return r, nil
	}
	imm := func(s string) (int32, error) {
		// Labels are legal immediates (address materialization, e.g.
		// "addi r1, r0, table" before an indirect jump or load).
		if abs, ok := symbols[s]; ok {
			return int32(abs), nil
		}
		v, err := refParseInt(s, equs)
		if err != nil {
			return 0, errf(st.line, "immediate %q: %v", s, err)
		}
		return int32(v), nil
	}
	// target resolves a label or numeric operand into the encoded
	// immediate for a control transfer at word address st.addr.
	target := func(s string) (int32, error) {
		abs, ok := symbols[s]
		if !ok {
			v, err := refParseInt(s, equs)
			if err != nil {
				return 0, errf(st.line, "unknown target %q", s)
			}
			abs = int(v)
		}
		if op.Format() == isa.FormatB {
			return int32(abs - st.addr - 1), nil
		}
		return int32(abs), nil
	}

	var err error
	switch op {
	case isa.OpNOP, isa.OpHALT:
		if len(f) != 0 {
			return in, errf(st.line, "%s takes no operands", st.mnem)
		}
		return in, nil
	case isa.OpJR:
		if len(f) != 1 {
			return in, errf(st.line, "jr wants one register")
		}
		in.Rs1, err = reg(f[0])
		return in, err
	case isa.OpJALR:
		if len(f) != 2 {
			return in, errf(st.line, "jalr wants rd, rs1")
		}
		if in.Rd, err = reg(f[0]); err != nil {
			return in, err
		}
		in.Rs1, err = reg(f[1])
		return in, err
	case isa.OpSYS:
		if len(f) != 1 {
			return in, errf(st.line, "sys wants one immediate")
		}
		in.Imm, err = imm(f[0])
		return in, err
	case isa.OpLUI:
		if len(f) != 2 {
			return in, errf(st.line, "lui wants rd, imm")
		}
		if in.Rd, err = reg(f[0]); err != nil {
			return in, err
		}
		in.Imm, err = imm(f[1])
		return in, err
	case isa.OpJ, isa.OpJAL:
		if len(f) != 1 {
			return in, errf(st.line, "%s wants one target", st.mnem)
		}
		in.Imm, err = target(f[0])
		return in, err
	case isa.OpLW, isa.OpLH, isa.OpLB, isa.OpSW, isa.OpSH, isa.OpSB:
		if len(f) != 2 {
			return in, errf(st.line, "%s wants rd, disp(base)", st.mnem)
		}
		if in.Rd, err = reg(f[0]); err != nil {
			return in, err
		}
		disp, base, perr := refParseDisp(f[1])
		if perr != nil {
			return in, errf(st.line, "%v", perr)
		}
		if in.Rs1, err = reg(base); err != nil {
			return in, err
		}
		in.Imm, err = imm(disp)
		return in, err
	}
	switch op.Format() {
	case isa.FormatR:
		if len(f) != 3 {
			return in, errf(st.line, "%s wants rd, rs1, rs2", st.mnem)
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
		if len(f) != 3 {
			return in, errf(st.line, "%s wants rd, rs1, imm", st.mnem)
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
		if len(f) != 3 {
			return in, errf(st.line, "%s wants rs1, rs2, target", st.mnem)
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
	return in, errf(st.line, "unhandled mnemonic %q", st.mnem)
}

func refStripComment(line string) string {
	for _, marker := range []string{";", "#", "//"} {
		if i := strings.Index(line, marker); i >= 0 {
			line = line[:i]
		}
	}
	return line
}

func refSplitMnemonic(line string) (mnem, rest string) {
	i := strings.IndexAny(line, " \t")
	if i < 0 {
		return strings.ToLower(line), ""
	}
	return strings.ToLower(line[:i]), strings.TrimSpace(line[i+1:])
}

func refSplitFields(rest string) []string {
	if rest == "" {
		return nil
	}
	parts := strings.Split(rest, ",")
	out := make([]string, 0, len(parts))
	for _, p := range parts {
		out = append(out, strings.TrimSpace(p))
	}
	return out
}

func refValidIdent(s string) bool {
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

func refParseReg(s string) (isa.Reg, error) {
	if len(s) < 2 || (s[0] != 'r' && s[0] != 'R') {
		return 0, fmt.Errorf("bad register %q", s)
	}
	n, err := strconv.Atoi(s[1:])
	if err != nil || n < 0 || n >= isa.NumRegs {
		return 0, fmt.Errorf("bad register %q", s)
	}
	return isa.Reg(n), nil
}

// refParseInt parses decimal, hex (0x), binary (0b) and char ('c')
// literals, and .equ constant names.
func refParseInt(s string, equs map[string]int64) (int64, error) {
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

// refParseDisp splits "disp(base)" into its two components.
func refParseDisp(s string) (disp, base string, err error) {
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
