package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// AppendAPI enforces the dst-prefix-preservation contract of the
// zero-alloc codec API: implementations of CompressAppend,
// DecompressAppend, DecompressGroup and AppendGroupOffsets, and the
// helpers decompressBlock and decompressGroup that the word-pattern
// codecs' DecompressAppend and DecompressGroup run, receive a dst
// slice whose existing contents belong to the caller and may only grow
// it. The analyzer flags, inside any function with one of those names:
//
//   - reassignments of dst that are not calls threading dst through
//     (dst = append(dst, …), dst = extendLen(dst, n), …) — in
//     particular reslices like dst = dst[:0], which re-expose or
//     discard the caller's prefix;
//   - indexed writes dst[i] = … (and dst[i] op= …, dst[i]++) where i
//     is not provably anchored at or above the incoming len(dst): an
//     index is anchored when it derives from len(dst) by addition —
//     base := len(dst); dst[base+k] = … — the idiom every patch-back
//     write in the codecs uses;
//   - copy(dst, …) and copy(dst[i:], …) with an unanchored i, and
//     clear(dst), all of which overwrite from below the append
//     frontier.
//
// The corresponding dynamic check is the prefix-preservation assert
// in FuzzAppendRoundTrip; this makes the same contract visible at
// compile time.
var AppendAPI = &Analyzer{
	Name: "appendapi",
	Doc:  "check that append-API implementations only grow dst and never write below the incoming len(dst)",
	Run:  runAppendAPI,
}

// appendAPINames are the contract-bearing function and method names.
var appendAPINames = map[string]bool{
	"CompressAppend":     true,
	"DecompressAppend":   true,
	"DecompressGroup":    true,
	"AppendGroupOffsets": true,
	"decompressBlock":    true,
	"decompressGroup":    true,
}

func runAppendAPI(pass *Pass) error {
	for _, file := range pass.SourceFiles() {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || !appendAPINames[fn.Name.Name] {
				continue
			}
			dst := firstSliceParam(pass.TypesInfo, fn)
			if dst == nil {
				continue
			}
			c := &appendChecker{pass: pass, dst: dst}
			c.collectAssigns(fn.Body)
			c.check(fn.Body)
		}
	}
	return nil
}

// firstSliceParam resolves the first parameter when it is a slice —
// the dst of the append contract.
func firstSliceParam(info *types.Info, fn *ast.FuncDecl) types.Object {
	params := fn.Type.Params
	if params == nil || len(params.List) == 0 || len(params.List[0].Names) == 0 {
		return nil
	}
	name := params.List[0].Names[0]
	if name.Name == "_" {
		return nil
	}
	obj := info.Defs[name]
	if obj == nil {
		return nil
	}
	if _, ok := types.Unalias(obj.Type()).Underlying().(*types.Slice); !ok {
		return nil
	}
	return obj
}

type appendChecker struct {
	pass *Pass
	dst  types.Object

	// assigns collects every assignment RHS per object, for the
	// anchored-index fixpoint; poisoned marks objects with an
	// assignment form that breaks anchoring (range var, i--, i -= k).
	assigns  map[types.Object][]ast.Expr
	poisoned map[types.Object]bool
}

func (c *appendChecker) collectAssigns(body *ast.BlockStmt) {
	info := c.pass.TypesInfo
	c.assigns = make(map[types.Object][]ast.Expr)
	c.poisoned = make(map[types.Object]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Lhs) == len(n.Rhs) {
				for i, lhs := range n.Lhs {
					obj := lhsObj(info, lhs)
					if obj == nil {
						continue
					}
					switch n.Tok {
					case token.ASSIGN, token.DEFINE, token.ADD_ASSIGN:
						c.assigns[obj] = append(c.assigns[obj], n.Rhs[i])
					default: // -=, *=, …: no longer provably ≥ anchor
						c.poisoned[obj] = true
					}
				}
			} else {
				for _, lhs := range n.Lhs {
					if obj := lhsObj(info, lhs); obj != nil {
						c.poisoned[obj] = true
					}
				}
			}
		case *ast.IncDecStmt:
			if obj := lhsObj(info, n.X); obj != nil && n.Tok == token.DEC {
				c.poisoned[obj] = true
			}
		case *ast.RangeStmt:
			if n.Key != nil {
				if obj := lhsObj(info, n.Key); obj != nil {
					c.poisoned[obj] = true
				}
			}
		}
		return true
	})
}

func (c *appendChecker) check(body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				// dst[i] = …, dst[i] op= …
				if idx, ok := ast.Unparen(lhs).(*ast.IndexExpr); ok && c.isDst(idx.X) {
					if !c.anchored(idx.Index, nil) {
						c.pass.Reportf(idx.Pos(), "indexed write to %s may land below the incoming len(%s): the append-API contract only permits growth via append (anchor the index at a captured len(%s))",
							c.dst.Name(), c.dst.Name(), c.dst.Name())
					}
					continue
				}
				// dst = …
				if c.isDst(lhs) {
					var rhs ast.Expr
					if i < len(n.Rhs) {
						rhs = n.Rhs[i]
					} else if len(n.Rhs) == 1 {
						rhs = n.Rhs[0]
					}
					c.checkDstReassign(n, rhs)
				}
			}
		case *ast.IncDecStmt:
			if idx, ok := ast.Unparen(n.X).(*ast.IndexExpr); ok && c.isDst(idx.X) {
				if !c.anchored(idx.Index, nil) {
					c.pass.Reportf(idx.Pos(), "indexed write to %s may land below the incoming len(%s)", c.dst.Name(), c.dst.Name())
				}
			}
		case *ast.CallExpr:
			c.checkBuiltinWrite(n)
		}
		return true
	})
}

// checkDstReassign permits only call results that thread dst through
// their arguments (append, growCap/extendLen, helper appenders).
func (c *appendChecker) checkDstReassign(at *ast.AssignStmt, rhs ast.Expr) {
	if rhs == nil {
		c.pass.Reportf(at.Pos(), "unpaired reassignment of %s in an append-API implementation", c.dst.Name())
		return
	}
	if call, ok := ast.Unparen(rhs).(*ast.CallExpr); ok {
		for _, arg := range call.Args {
			if c.refersToDst(arg) {
				return // dst flows through the callee: growth-preserving by contract
			}
		}
		c.pass.Reportf(at.Pos(), "%s reassigned from a call that does not take %s: the incoming prefix is lost", c.dst.Name(), c.dst.Name())
		return
	}
	c.pass.Reportf(at.Pos(), "%s reassigned outside the append idiom (reslicing or replacing dst can expose or discard the caller's prefix)", c.dst.Name())
}

// checkBuiltinWrite flags copy/clear forms that write from an
// unanchored offset.
func (c *appendChecker) checkBuiltinWrite(call *ast.CallExpr) {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return
	}
	b, ok := c.pass.TypesInfo.Uses[id].(*types.Builtin)
	if !ok {
		return
	}
	switch b.Name() {
	case "copy":
		if len(call.Args) != 2 {
			return
		}
		target := ast.Unparen(call.Args[0])
		if c.isDst(target) {
			c.pass.Reportf(call.Pos(), "copy into %s writes from index 0, below the incoming len(%s)", c.dst.Name(), c.dst.Name())
			return
		}
		if sl, ok := target.(*ast.SliceExpr); ok && c.isDst(sl.X) {
			if sl.Low == nil || !c.anchored(sl.Low, nil) {
				c.pass.Reportf(call.Pos(), "copy into %s at an unanchored offset may overwrite the incoming prefix", c.dst.Name())
			}
		}
	case "clear":
		if len(call.Args) == 1 && c.refersToDst(call.Args[0]) {
			c.pass.Reportf(call.Pos(), "clear on %s erases the caller's prefix", c.dst.Name())
		}
	}
}

func (c *appendChecker) isDst(e ast.Expr) bool {
	return identObj(c.pass.TypesInfo, e) == c.dst
}

func (c *appendChecker) refersToDst(e ast.Expr) bool {
	return refersTo(c.pass.TypesInfo, e, c.dst)
}

// anchored reports whether e provably evaluates to at least the
// incoming len(dst): len(dst) itself (len never shrinks under the
// append-only rules this analyzer enforces alongside), an anchored
// variable, or an addition with an anchored term. visiting breaks
// recursion through self-referential updates (i = i + 4).
func (c *appendChecker) anchored(e ast.Expr, visiting map[types.Object]bool) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.CallExpr:
		id, ok := ast.Unparen(e.Fun).(*ast.Ident)
		if !ok {
			return false
		}
		b, ok := c.pass.TypesInfo.Uses[id].(*types.Builtin)
		return ok && b.Name() == "len" && len(e.Args) == 1 && c.isDst(e.Args[0])
	case *ast.Ident:
		obj := c.pass.TypesInfo.Uses[e]
		if obj == nil {
			return false
		}
		if visiting[obj] {
			return true // self-referential step (i += k); the base assignment decides
		}
		if c.poisoned[obj] {
			return false
		}
		rhss := c.assigns[obj]
		if len(rhss) == 0 {
			return false
		}
		if visiting == nil {
			visiting = make(map[types.Object]bool)
		}
		visiting[obj] = true
		defer delete(visiting, obj)
		for _, rhs := range rhss {
			if !c.anchored(rhs, visiting) {
				return false
			}
		}
		return true
	case *ast.BinaryExpr:
		if e.Op == token.ADD {
			return c.anchored(e.X, visiting) || c.anchored(e.Y, visiting)
		}
		return false
	default:
		return false
	}
}
