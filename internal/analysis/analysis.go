// Package analysis is the repo's static-analysis suite: a small,
// dependency-free reimplementation of the golang.org/x/tools
// go/analysis shape (Analyzer, Pass, Diagnostic) plus the four
// invariant checkers the codebase lives by — the append-API dst-prefix
// contract (appendapi), ErrCorrupt discipline on hostile-input paths
// (corrupterr), no callbacks or logging under a held mutex (lockdisc),
// and obs traces kept on one goroutine (spanpair) — along with
// allowcheck, which lints the suppression comments themselves.
//
// The suite runs through cmd/apcc-lint, either standalone or as a
// `go vet -vettool` plugin (the driver in unitchecker.go speaks the
// cmd/go vet JSON protocol), so the invariants are machine-checked in
// CI instead of resting on reviewer vigilance and alloc-pin tests.
//
// Suppression: a finding is silenced by a comment on the flagged line
// or the line directly above it:
//
//	//apcc:allow <analyzer> <reason>
//
// The reason is mandatory; allowcheck flags malformed or unknown
// suppressions.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// An Analyzer is one named invariant check over a type-checked
// package.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //apcc:allow comments.
	Name string
	// Doc is a one-paragraph description of the enforced invariant.
	Doc string
	// Run reports violations through pass.Report.
	Run func(pass *Pass) error
}

// A Diagnostic is one finding at a source position.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// A Pass carries one analyzer's view of one package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	Report    func(Diagnostic)
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// SourceFiles returns the pass's non-test files. The invariants
// target production code: tests fabricate errors and break contracts
// on purpose, so analyzers iterate these instead of Pass.Files.
func (p *Pass) SourceFiles() []*ast.File {
	out := make([]*ast.File, 0, len(p.Files))
	for _, f := range p.Files {
		name := p.Fset.Position(f.Package).Filename
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		out = append(out, f)
	}
	return out
}

// allowPrefix starts a suppression comment, whole-line or end-of-line;
// see package doc for the grammar.
const allowPrefix = "//apcc:allow"

// A Mark is one //apcc:allow comment, resolved to its file position.
type Mark struct {
	File string // filename as recorded in the FileSet
	Line int
	Pos  token.Pos
	Args string // text after the directive word, space-trimmed
}

// allowMarks gathers every //apcc:allow comment across files. A
// directive must be its own comment: "//apcc:allowx" does not match.
func allowMarks(fset *token.FileSet, files []*ast.File) []Mark {
	var out []Mark
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, allowPrefix)
				if !ok || rest != "" && rest[0] != ' ' && rest[0] != '\t' {
					continue
				}
				pos := fset.Position(c.Pos())
				out = append(out, Mark{File: pos.Filename, Line: pos.Line, Pos: c.Pos(), Args: strings.TrimSpace(rest)})
			}
		}
	}
	return out
}

// Allows indexes //apcc:allow suppressions: analyzer name -> file ->
// set of lines carrying a well-formed allow for that analyzer.
type Allows map[string]map[string]map[int]bool

// CollectAllows scans the files' comments for //apcc:allow
// directives. Malformed directives (no analyzer name, or no reason)
// are ignored here — allowcheck reports them — so a reasonless allow
// never silences anything.
func CollectAllows(fset *token.FileSet, files []*ast.File) Allows {
	allows := make(Allows)
	for _, m := range allowMarks(fset, files) {
		name, reason, _ := strings.Cut(m.Args, " ")
		if name == "" || strings.TrimSpace(reason) == "" {
			continue
		}
		byFile := allows[name]
		if byFile == nil {
			byFile = make(map[string]map[int]bool)
			allows[name] = byFile
		}
		lines := byFile[m.File]
		if lines == nil {
			lines = make(map[int]bool)
			byFile[m.File] = lines
		}
		lines[m.Line] = true
	}
	return allows
}

// Suppresses reports whether a diagnostic from the named analyzer at
// pos is covered by an allow on the same line or the line directly
// above.
func (a Allows) Suppresses(fset *token.FileSet, name string, pos token.Pos) bool {
	byFile := a[name]
	if byFile == nil {
		return false
	}
	p := fset.Position(pos)
	lines := byFile[p.Filename]
	return lines != nil && (lines[p.Line] || lines[p.Line-1])
}

// ---- shared type/AST helpers ----

// funcObj resolves the called function or method of call, nil for
// dynamic calls, builtins and conversions.
func funcObj(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// pkgPathMatches reports whether a package path is the named repo
// package: an exact match, or any module's copy of it ("…/internal/x"
// suffix), so the analyzers work identically on this module and on
// fixture modules that stub the same layout.
func pkgPathMatches(path, want string) bool {
	return path == want || strings.HasSuffix(path, "/"+want)
}

// namedType unwraps pointers and aliases to the underlying named
// type, nil when t is not named.
func namedType(t types.Type) *types.Named {
	if t == nil {
		return nil
	}
	t = types.Unalias(t)
	if p, ok := t.(*types.Pointer); ok {
		t = types.Unalias(p.Elem())
	}
	n, _ := t.(*types.Named)
	return n
}

// isNamedType reports whether t (possibly behind a pointer) is the
// named type pkgSuffix.name.
func isNamedType(t types.Type, pkgSuffix, name string) bool {
	n := namedType(t)
	if n == nil {
		return false
	}
	obj := n.Obj()
	if obj.Name() != name || obj.Pkg() == nil {
		return false
	}
	return pkgPathMatches(obj.Pkg().Path(), pkgSuffix)
}

// identObj resolves an identifier expression (through parens) to its
// object, nil otherwise.
func identObj(info *types.Info, e ast.Expr) types.Object {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return nil
	}
	if obj := info.Uses[id]; obj != nil {
		return obj
	}
	return info.Defs[id]
}

// refersTo reports whether the expression tree mentions obj.
func refersTo(info *types.Info, e ast.Expr, obj types.Object) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if found {
			return false
		}
		if id, ok := n.(*ast.Ident); ok && info.Uses[id] == obj {
			found = true
		}
		return !found
	})
	return found
}

// lhsObj resolves an assignment target identifier, skipping blank.
func lhsObj(info *types.Info, e ast.Expr) types.Object {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok || id.Name == "_" {
		return nil
	}
	if obj := info.Defs[id]; obj != nil {
		return obj
	}
	return info.Uses[id]
}

// isTerminatorCall recognizes calls that never return: panic,
// os.Exit, runtime.Goexit, log.Fatal*/Panic*, (*testing.T).Fatal*.
func isTerminatorCall(info *types.Info, call *ast.CallExpr) bool {
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok && b.Name() == "panic" {
			return true
		}
	}
	fn := funcObj(info, call)
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	switch fn.Pkg().Path() {
	case "os":
		return fn.Name() == "Exit"
	case "runtime":
		return fn.Name() == "Goexit"
	case "log":
		switch fn.Name() {
		case "Fatal", "Fatalf", "Fatalln", "Panic", "Panicf", "Panicln":
			return true
		}
	case "testing":
		switch fn.Name() {
		case "Fatal", "Fatalf", "SkipNow", "Skipf", "Skip":
			return true
		}
	}
	return false
}
