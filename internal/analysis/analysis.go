// Package analysis is the repo's static-analysis suite: a small,
// dependency-free reimplementation of the golang.org/x/tools
// go/analysis shape (Analyzer, Pass, Diagnostic) plus the five
// invariant checkers the codebase lives by — pooled-buffer ownership
// (bufpool), the append-API dst-prefix contract (appendapi),
// ErrCorrupt discipline on hostile-input paths (corrupterr), no
// callbacks or logging under a held mutex (lockdisc), and obs traces
// kept on one goroutine (spanpair) — along with allowcheck, which
// lints the suppression comments themselves.
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
// suppressions. The bufpool analyzer additionally honors
// //apcc:owns (see bufpool.go) for intentional ownership transfer.
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
// target production code: tests leak buffers and fabricate errors on
// purpose, so analyzers iterate these instead of Pass.Files.
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

// Directive comment prefixes. Both are whole-line or end-of-line
// comments; see package doc for the allow grammar.
const (
	allowPrefix = "//apcc:allow"
	ownsPrefix  = "//apcc:owns"
)

// A Mark is one //apcc:* directive comment, resolved to its file
// position.
type Mark struct {
	File string // filename as recorded in the FileSet
	Line int
	Pos  token.Pos
	Args string // text after the directive word, space-trimmed
}

// collectMarks gathers every directive comment with the given prefix
// (e.g. "//apcc:allow") across files. A directive must be its own
// comment: "//apcc:allowx" does not match "//apcc:allow".
func collectMarks(fset *token.FileSet, files []*ast.File, prefix string) []Mark {
	var out []Mark
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := cutDirective(c.Text, prefix)
				if !ok {
					continue
				}
				pos := fset.Position(c.Pos())
				out = append(out, Mark{File: pos.Filename, Line: pos.Line, Pos: c.Pos(), Args: rest})
			}
		}
	}
	return out
}

// cutDirective returns the argument text of a directive comment, and
// whether the comment is that directive (exact word match).
func cutDirective(text, prefix string) (string, bool) {
	if !strings.HasPrefix(text, prefix) {
		return "", false
	}
	rest := text[len(prefix):]
	if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
		return "", false // different directive sharing the prefix
	}
	return strings.TrimSpace(rest), true
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
	for _, m := range collectMarks(fset, files, allowPrefix) {
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

// ownsLines returns file -> lines carrying an //apcc:owns mark.
func ownsLines(fset *token.FileSet, files []*ast.File) map[string]map[int]bool {
	out := make(map[string]map[int]bool)
	for _, m := range collectMarks(fset, files, ownsPrefix) {
		lines := out[m.File]
		if lines == nil {
			lines = make(map[int]bool)
			out[m.File] = lines
		}
		lines[m.Line] = true
	}
	return out
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

// isFuncNamed reports whether fn is a function or method with the
// given name defined in a package matching pkgSuffix (see
// pkgPathMatches).
func isFuncNamed(fn *types.Func, pkgSuffix, name string) bool {
	if fn == nil || fn.Name() != name || fn.Pkg() == nil {
		return false
	}
	return pkgPathMatches(fn.Pkg().Path(), pkgSuffix)
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
