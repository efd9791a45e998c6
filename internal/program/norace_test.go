//go:build !race

package program_test

// raceEnabled reports a -race build (see race_test.go).
const raceEnabled = false
