package analysis

import (
	"go/ast"
	"go/types"
)

// SpanPair enforces the obs tracing contract that a *obs.Trace never
// crosses a go statement. A trace is single-goroutine (Next and Finish
// must be ordered by happens-before on the request goroutine), so
// handing one to a goroutine races on its tiles. The name stays
// spanpair so that //apcc:allow spanpair comments keep matching.
var SpanPair = &Analyzer{
	Name: "spanpair",
	Doc:  "check that obs traces never cross a go statement",
	Run:  runSpanPair,
}

func runSpanPair(pass *Pass) error {
	info := pass.TypesInfo
	for _, file := range pass.SourceFiles() {
		// Any *obs.Trace variable declared outside a `go` statement but
		// referenced inside it crosses goroutines.
		ast.Inspect(file, func(n ast.Node) bool {
			g, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			ast.Inspect(g.Call, func(m ast.Node) bool {
				id, ok := m.(*ast.Ident)
				if !ok {
					return true
				}
				// Only variables carry a trace; the type name in
				// `var tr *obs.Trace` does not.
				obj, ok := info.Uses[id].(*types.Var)
				if !ok || obj.Pos() == 0 {
					return true
				}
				// Declared inside the go statement's own literal is fine.
				if obj.Pos() >= g.Pos() && obj.Pos() < g.End() {
					return true
				}
				if isNamedType(obj.Type(), "internal/obs", "Trace") {
					pass.Reportf(id.Pos(), "%s crosses a go statement: obs traces are single-goroutine", obj.Name())
				}
				return true
			})
			return true
		})
	}
	return nil
}
