package isa

import (
	"encoding/binary"
	"fmt"
)

// ByteOrder is the memory byte order of ERI32: little-endian, matching
// the common embedded configuration of ARM/MIPS-class cores.
var ByteOrder = binary.LittleEndian

// WordsToBytes serializes instruction words into their little-endian
// memory image.
func WordsToBytes(words []uint32) []byte {
	buf := make([]byte, len(words)*WordSize)
	for i, w := range words {
		ByteOrder.PutUint32(buf[i*WordSize:], w)
	}
	return buf
}

// AppendEncodedBytes encodes instructions straight into dst as their
// little-endian memory image, skipping the intermediate word slice —
// the zero-alloc form of EncodeAll+WordsToBytes for callers that own a
// reusable buffer (the pack pipeline encodes every block once per
// build).
func AppendEncodedBytes(dst []byte, ins []Instruction) ([]byte, error) {
	for i, in := range ins {
		w, err := in.Encode()
		if err != nil {
			return nil, fmt.Errorf("isa: instruction %d (%s): %w", i, in, err)
		}
		dst = ByteOrder.AppendUint32(dst, w)
	}
	return dst, nil
}

// DecodeAll decodes every word of a program image.
func DecodeAll(words []uint32) ([]Instruction, error) {
	ins := make([]Instruction, len(words))
	for i, w := range words {
		if err := decodeInto(&ins[i], w); err != nil {
			return nil, fmt.Errorf("isa: word %d: %w", i, err)
		}
	}
	return ins, nil
}

// DecodeBytes decodes src, a little-endian code image of exactly
// len(dst) words, into dst: word i becomes dst[i]. It fails at the
// first word that is no instruction, naming its index.
func DecodeBytes(dst []Instruction, src []byte) error {
	if len(src) != len(dst)*WordSize {
		return fmt.Errorf("%w: %d bytes for %d words", ErrShortBuffer, len(src), len(dst))
	}
	for i := range dst {
		if err := decodeInto(&dst[i], ByteOrder.Uint32(src[i*WordSize:])); err != nil {
			return fmt.Errorf("isa: word %d: %w", i, err)
		}
	}
	return nil
}

// EncodeAll encodes a sequence of instructions into words.
func EncodeAll(ins []Instruction) ([]uint32, error) {
	words := make([]uint32, len(ins))
	for i, in := range ins {
		w, err := in.Encode()
		if err != nil {
			return nil, fmt.Errorf("isa: instruction %d (%s): %w", i, in, err)
		}
		words[i] = w
	}
	return words, nil
}

// Disassemble renders a program image as one assembly line per word,
// prefixed with the word index.
func Disassemble(words []uint32) ([]string, error) {
	lines := make([]string, len(words))
	for i, w := range words {
		in, err := Decode(w)
		if err != nil {
			return nil, fmt.Errorf("isa: word %d: %w", i, err)
		}
		lines[i] = fmt.Sprintf("%4d: %s", i, in)
	}
	return lines, nil
}
