//go:build !race

package pack

// raceEnabled reports a -race build (see race_test.go).
const raceEnabled = false
