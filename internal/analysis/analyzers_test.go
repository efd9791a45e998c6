package analysis

import (
	"sort"
	"strings"
	"testing"
)

// The golden fixtures: each package under testdata/src encodes its
// analyzer's positive cases, negative cases, and suppressions as
// `// want` comments (see harness_test.go).

func TestAppendAPIFixture(t *testing.T) { checkFixture(t, "appendtest", AppendAPI) }

func TestCorruptErrFixture(t *testing.T) { checkFixture(t, "fixmod/internal/pack", CorruptErr) }

func TestCorruptErrStoreFixture(t *testing.T) { checkFixture(t, "fixmod/internal/store", CorruptErr) }

func TestCorruptErrOutOfScope(t *testing.T) { checkFixture(t, "scopetest", CorruptErr) }

func TestLockDiscFixture(t *testing.T) { checkFixture(t, "locktest", LockDisc) }

func TestSpanPairFixture(t *testing.T) { checkFixture(t, "spantest", SpanPair) }

// TestAllowCheck drives allowcheck directly: an //apcc:allow line
// comment runs to end-of-line, so the fixture cannot carry same-line
// want comments.
func TestAllowCheck(t *testing.T) {
	l := newFixtureLoader()
	pkg, err := l.load("allowtest")
	if err != nil {
		t.Fatal(err)
	}
	findings, err := RunAnalyzers(l.fset, l.asts["allowtest"], pkg, l.info["allowtest"], []*Analyzer{AllowCheck})
	if err != nil {
		t.Fatal(err)
	}
	wantSubstrings := []string{
		"//apcc:allow needs an analyzer name and a reason",
		`names unknown analyzer "nosuch"`,
		"has no reason",
	}
	if len(findings) != len(wantSubstrings) {
		t.Errorf("got %d findings, want %d: %v", len(findings), len(wantSubstrings), findings)
	}
	for _, want := range wantSubstrings {
		found := false
		for _, f := range findings {
			if strings.Contains(f.Message, want) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("no finding contains %q; findings: %v", want, findings)
		}
	}
}

// TestRegistryNameList pins the hand-maintained analyzerNameList
// (which cannot be derived from All without an init cycle through
// allowcheck) to All's actual names.
func TestRegistryNameList(t *testing.T) {
	var fromAll []string
	for _, a := range All {
		fromAll = append(fromAll, a.Name)
	}
	sort.Strings(fromAll)
	got := analyzerNames()
	if len(got) != len(fromAll) {
		t.Fatalf("analyzerNameList = %v, want the names of All = %v", got, fromAll)
	}
	for i := range got {
		if got[i] != fromAll[i] {
			t.Fatalf("analyzerNameList = %v, want the names of All = %v", got, fromAll)
		}
	}
}

func TestByName(t *testing.T) {
	for _, a := range All {
		if ByName(a.Name) != a {
			t.Errorf("ByName(%q) did not return the registered analyzer", a.Name)
		}
	}
	if ByName("nosuch") != nil {
		t.Errorf("ByName(nosuch) = non-nil")
	}
}
