// Package allowtest feeds allowcheck's direct test (a //apcc:allow
// line comment runs to end-of-line, so want comments cannot share its
// line; allowcheck_test.go asserts on positions instead).
package allowtest

//apcc:allow
func missingName() {}

//apcc:allow nosuch the analyzer does not exist
func unknownName() {}

//apcc:allow lockdisc
func missingReason() {}

//apcc:allow lockdisc the callback only bumps a counter and takes no lock
func wellFormed() {}
