package analysis

import (
	"go/ast"
	"strconv"
	"strings"
)

// CorruptErr enforces the hostile-input error discipline in the
// decode layers: internal/pack and internal/compress promise that
// every error produced while rejecting malformed input satisfies
// errors.Is(err, ErrCorrupt) — the robustness tests, the store's
// quarantine of an object that fails its hash, and pack.IsCorrupt,
// through which the server decides to quarantine a warm restore that
// fails Unpack, all dispatch on that sentinel. A decode-path function
// that constructs an error with errors.New, or with fmt.Errorf and no
// %w verb, produces an unchainable error that silently falls out of
// that decision.
//
// Scope: functions in packages …/internal/pack, …/internal/compress,
// and …/internal/store whose name starts with a decode-path stem
// (Decompress, Decode, Parse, Unpack, Verify, Read, FromModel — any
// case). In the store, a naked error from a read or verify would let
// rotten bytes dodge quarantine. Errors built with
// fmt.Errorf("%w: …", ErrCorrupt, …) or wrapping an upstream error
// with %w pass; package-level sentinel declarations are outside any
// function and are never flagged.
var CorruptErr = &Analyzer{
	Name: "corrupterr",
	Doc:  "check that decode paths in pack/compress/store wrap ErrCorrupt (or an upstream error) with %w instead of minting naked errors",
	Run:  runCorruptErr,
}

// corruptStems are the lowercase name prefixes that mark a function
// as a hostile-input decode path.
var corruptStems = []string{"decompress", "decode", "parse", "unpack", "verify", "read", "frommodel"}

func runCorruptErr(pass *Pass) error {
	path := pass.Pkg.Path()
	if !pkgPathMatches(path, "internal/pack") && !pkgPathMatches(path, "internal/compress") &&
		!pkgPathMatches(path, "internal/store") {
		return nil
	}
	for _, file := range pass.SourceFiles() {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || !isDecodePathName(fn.Name.Name) {
				continue
			}
			checkCorruptErrors(pass, fn.Body)
		}
	}
	return nil
}

func isDecodePathName(name string) bool {
	l := strings.ToLower(name)
	for _, stem := range corruptStems {
		if strings.HasPrefix(l, stem) {
			return true
		}
	}
	return false
}

func checkCorruptErrors(pass *Pass, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := funcObj(pass.TypesInfo, call)
		if fn == nil || fn.Pkg() == nil {
			return true
		}
		switch {
		case fn.Pkg().Path() == "errors" && fn.Name() == "New":
			pass.Reportf(call.Pos(), "errors.New in a decode path mints an error that cannot chain to ErrCorrupt: use fmt.Errorf(\"%%w: …\", ErrCorrupt) so hostile-input triage (errors.Is) keeps working")
		case fn.Pkg().Path() == "fmt" && fn.Name() == "Errorf":
			if len(call.Args) == 0 {
				return true
			}
			lit, ok := ast.Unparen(call.Args[0]).(*ast.BasicLit)
			if !ok {
				return true // dynamic format: cannot judge statically
			}
			format, err := strconv.Unquote(lit.Value)
			if err != nil {
				return true
			}
			if !strings.Contains(format, "%w") {
				pass.Reportf(call.Pos(), "fmt.Errorf without %%w in a decode path breaks the ErrCorrupt chain: wrap the sentinel (or the upstream error) with %%w")
			}
		}
		return true
	})
}
