package analysis

import "strings"

// AllowCheck lints the suppression machinery itself: every
// //apcc:allow comment must name a registered analyzer and give a
// non-empty reason, so suppressions stay auditable (a reasonless
// allow is also ignored by the driver — this analyzer explains why
// the finding it was supposed to silence is still firing).
var AllowCheck = &Analyzer{
	Name: "allowcheck",
	Doc:  "check that //apcc:allow comments name a known analyzer and carry a reason",
	Run:  runAllowCheck,
}

func runAllowCheck(pass *Pass) error {
	for _, m := range allowMarks(pass.Fset, pass.Files) {
		name, reason, _ := strings.Cut(m.Args, " ")
		switch {
		case name == "":
			pass.Reportf(m.Pos, "//apcc:allow needs an analyzer name and a reason: //apcc:allow <analyzer> <why>")
		case !knownAnalyzer(name):
			pass.Reportf(m.Pos, "//apcc:allow names unknown analyzer %q (known: %s)", name, strings.Join(analyzerNames(), ", "))
		case strings.TrimSpace(reason) == "":
			pass.Reportf(m.Pos, "//apcc:allow %s has no reason: suppressions must say why the invariant does not apply", name)
		}
	}
	return nil
}
