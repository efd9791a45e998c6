package asm

// CheckAssembleEquivalence exposes the reference check to the external
// test package, which can import the generated programs.
var CheckAssembleEquivalence = checkAssembleEquivalence
