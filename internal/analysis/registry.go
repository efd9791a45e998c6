package analysis

import "sort"

// All is the full invariant suite in the order diagnostics are
// grouped by the driver.
var All = []*Analyzer{
	AppendAPI,
	AllowCheck,
	CorruptErr,
	LockDisc,
	SpanPair,
}

// analyzerNameList feeds allowcheck's name validation. It is a plain
// string list (not derived from All) because deriving it would form
// an initialization cycle through AllowCheck itself; registry_test.go
// pins it equal to All's names.
var analyzerNameList = []string{"allowcheck", "appendapi", "corrupterr", "lockdisc", "spanpair"}

func knownAnalyzer(name string) bool {
	for _, n := range analyzerNameList {
		if n == name {
			return true
		}
	}
	return false
}

func analyzerNames() []string {
	names := append([]string(nil), analyzerNameList...)
	sort.Strings(names)
	return names
}

// ByName returns the named analyzer, nil when unknown.
func ByName(name string) *Analyzer {
	for _, a := range All {
		if a.Name == name {
			return a
		}
	}
	return nil
}
