package asm

import (
	"errors"
	"strings"
)

// Exports for the external test package, which can import the
// generated programs and the program package.
var (
	CheckAssembleEquivalence = checkAssembleEquivalence
	RefAssemble              = refAssemble
	EquivSources             = equivSources
)

// ReferenceAgrees reports whether refAssemble is meant to match
// Assemble on src: the source is outside the two intended differences
// (quotesSeparator, wrapped), and its layout is small enough to hand to
// the reference.
func ReferenceAgrees(src string) bool {
	_, err := Assemble(src)
	var ae *Error
	errors.As(err, &ae)
	if ae != nil && strings.HasPrefix(ae.Msg, "program exceeds") || quotesSeparator(src) {
		return false
	}
	_, refErr := refAssemble(src)
	var re *Error
	errors.As(refErr, &re)
	return !wrapped(ae, re)
}
