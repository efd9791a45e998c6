// flow.go implements the bufpool analyzer's branch-sensitive
// acquire/release tracker. It is a pragmatic AST-level abstract
// interpretation, not a full CFG: paths through
// if/switch/select merge by union (a resource released on only one
// branch stays live on the merged path), returns check the live set,
// and loops adopt their body's end state once (so acquire+release
// inside a loop nets out, and a release of an outer resource inside
// the loop counts — accepting a little unsoundness to stay useful).
package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// group is one acquired resource. Several variables may alias it (the
// append idiom rebinds a pooled buffer through every grow call);
// releasing any alias releases the group.
type group struct {
	pos      token.Pos // acquire site, where leaks are reported
	reported bool
}

// pairTracker configures the engine for one resource kind.
type pairTracker struct {
	pass *Pass

	// isAcquire reports whether call creates a resource.
	isAcquire func(call *ast.CallExpr) bool
	// releaseTarget returns the expression whose resource this call
	// releases (PutBuf's argument), nil otherwise.
	releaseTarget func(call *ast.CallExpr) ast.Expr
	// isResourceVar reports whether a variable of this type can carry
	// the resource (gates aliasing through call results).
	isResourceVar func(t types.Type) bool
	// terminates reports whether a call ends the function abnormally
	// (panic, log.Fatal); live resources are not reported on those
	// paths.
	terminates func(call *ast.CallExpr) bool

	what        string // e.g. "pooled buffer from GetBuf"
	releaseName string // e.g. "PutBuf"

	// escape is invoked when a live resource is returned, stored into
	// a field/map/slice/global, sent on a channel, or captured by a go
	// statement. kind is a short description for the message. If nil,
	// escapes end tracking silently.
	escape func(g *group, site ast.Node, kind string)

	// per-function state
	binding       map[types.Object]*group
	deferReleased map[types.Object]bool
}

// state is the per-path live set.
type state struct {
	live map[*group]bool
}

func (s *state) clone() *state {
	c := &state{live: make(map[*group]bool, len(s.live))}
	for g := range s.live {
		c.live[g] = true
	}
	return c
}

func (s *state) union(o *state) {
	for g := range o.live {
		s.live[g] = true
	}
}

func (t *pairTracker) walkFunc(fn *ast.FuncDecl) {
	t.binding = make(map[types.Object]*group)
	t.deferReleased = make(map[types.Object]bool)
	st := &state{live: make(map[*group]bool)}
	if terminated := t.walkStmts(fn.Body.List, st); !terminated {
		t.reportLive(st)
	}
}

func (t *pairTracker) reportLive(st *state) {
	for g := range st.live {
		if !g.reported {
			g.reported = true
			t.pass.Reportf(g.pos, "%s is not released by %s on every path (add %s on each return path, defer it, or annotate the handoff)",
				t.what, t.releaseName, t.releaseName)
		}
	}
}

func (t *pairTracker) walkStmts(list []ast.Stmt, st *state) (terminated bool) {
	for _, s := range list {
		if t.walkStmt(s, st) {
			return true
		}
	}
	return false
}

func (t *pairTracker) walkStmt(s ast.Stmt, st *state) (terminated bool) {
	switch s := s.(type) {
	case *ast.AssignStmt:
		t.handleAssign(s, st)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok || len(vs.Values) == 0 {
					continue
				}
				lhs := make([]ast.Expr, len(vs.Names))
				for i, n := range vs.Names {
					lhs[i] = n
				}
				t.handleAssign(&ast.AssignStmt{Lhs: lhs, Tok: token.DEFINE, Rhs: vs.Values}, st)
			}
		}
	case *ast.ExprStmt:
		return t.handleExpr(s.X, st)
	case *ast.DeferStmt:
		t.handleDefer(s, st)
	case *ast.ReturnStmt:
		for _, res := range s.Results {
			t.checkEscapes(res, st, "returned", s)
			t.scanOrphanAcquires(res, st, s)
		}
		t.reportLive(st)
		return true
	case *ast.IfStmt:
		if s.Init != nil {
			t.walkStmt(s.Init, st)
		}
		thenSt := st.clone()
		termThen := t.walkStmts(s.Body.List, thenSt)
		elseSt := st.clone()
		termElse := false
		hasElse := s.Else != nil
		if hasElse {
			termElse = t.walkStmt(s.Else, elseSt)
		}
		st.live = make(map[*group]bool)
		if !termThen {
			st.union(thenSt)
		}
		if !termElse {
			st.union(elseSt)
		}
		return termThen && termElse && hasElse
	case *ast.ForStmt:
		if s.Init != nil {
			t.walkStmt(s.Init, st)
		}
		body := st.clone()
		if term := t.walkStmts(s.Body.List, body); !term {
			st.live = body.live
		}
	case *ast.RangeStmt:
		body := st.clone()
		if term := t.walkStmts(s.Body.List, body); !term {
			st.live = body.live
		}
	case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
		return t.walkCases(s, st)
	case *ast.BlockStmt:
		return t.walkStmts(s.List, st)
	case *ast.LabeledStmt:
		return t.walkStmt(s.Stmt, st)
	case *ast.GoStmt:
		t.checkEscapes(s.Call, st, "captured by goroutine", s)
	case *ast.SendStmt:
		t.checkEscapes(s.Value, st, "sent on channel", s)
	}
	return false
}

// walkCases handles switch/type-switch/select uniformly: each clause
// starts from the pre-state; fall-through merges the non-terminated
// clause ends, plus the pre-state when no default clause exists.
func (t *pairTracker) walkCases(s ast.Stmt, st *state) (terminated bool) {
	var clauses []ast.Stmt
	hasDefault := false
	switch s := s.(type) {
	case *ast.SwitchStmt:
		if s.Init != nil {
			t.walkStmt(s.Init, st)
		}
		clauses = s.Body.List
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			t.walkStmt(s.Init, st)
		}
		clauses = s.Body.List
	case *ast.SelectStmt:
		clauses = s.Body.List
	}
	merged := &state{live: make(map[*group]bool)}
	anyLive := false
	for _, c := range clauses {
		var body []ast.Stmt
		switch c := c.(type) {
		case *ast.CaseClause:
			if c.List == nil {
				hasDefault = true
			}
			body = c.Body
		case *ast.CommClause:
			if c.Comm == nil {
				hasDefault = true
			} else {
				t.walkStmt(c.Comm, st)
			}
			body = c.Body
		}
		cs := st.clone()
		if term := t.walkStmts(body, cs); !term {
			merged.union(cs)
			anyLive = true
		}
	}
	if !hasDefault {
		merged.union(st)
		anyLive = true
	}
	st.live = merged.live
	return !anyLive && len(clauses) > 0
}

// handleExpr processes a statement-level expression: releases,
// discarded acquires, terminator calls.
func (t *pairTracker) handleExpr(e ast.Expr, st *state) (terminated bool) {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	if tgt := t.releaseTarget(call); tgt != nil {
		t.release(tgt, st)
		return false
	}
	if t.isAcquire(call) {
		t.pass.Reportf(call.Pos(), "result of this call is discarded: the %s can never be released", t.what)
		return false
	}
	if t.terminates != nil && t.terminates(call) {
		return true
	}
	t.scanOrphanAcquires(e, st, e)
	return false
}

// handleDefer distinguishes `defer Put(x)` (releases the value x
// holds now) from `defer func(){ Put(x) }()` (the closure reads x at
// exit: every later rebinding of x is released too).
func (t *pairTracker) handleDefer(s *ast.DeferStmt, st *state) {
	if tgt := t.releaseTarget(s.Call); tgt != nil {
		t.release(tgt, st)
		return
	}
	if lit, ok := s.Call.Fun.(*ast.FuncLit); ok {
		ast.Inspect(lit.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if tgt := t.releaseTarget(call); tgt != nil {
				if obj := identObj(t.pass.TypesInfo, tgt); obj != nil {
					t.deferReleased[obj] = true
				}
				t.release(tgt, st)
			}
			return true
		})
	}
}

// release drops the group bound to the released expression, if
// tracked.
func (t *pairTracker) release(target ast.Expr, st *state) {
	if obj := identObj(t.pass.TypesInfo, target); obj != nil {
		if g := t.binding[obj]; g != nil {
			delete(st.live, g)
		}
	}
}

// handleAssign binds acquire results, threads aliases through calls
// (out, err := codec.DecompressAppend(GetBuf(n), comp) keeps the pool
// buffer tracked under out), and checks store-escapes.
func (t *pairTracker) handleAssign(a *ast.AssignStmt, st *state) {
	info := t.pass.TypesInfo

	// Store-escapes: a live resource assigned to a field, element, or
	// dereference leaves the function's custody.
	for i, lhs := range a.Lhs {
		switch ast.Unparen(lhs).(type) {
		case *ast.SelectorExpr, *ast.IndexExpr, *ast.StarExpr:
			if i < len(a.Rhs) {
				t.checkEscapes(a.Rhs[i], st, "stored outside the function", a)
			} else if len(a.Rhs) == 1 {
				t.checkEscapes(a.Rhs[0], st, "stored outside the function", a)
			}
		}
	}

	if len(a.Rhs) == 1 {
		rhs := ast.Unparen(a.Rhs[0])
		if call, ok := rhs.(*ast.CallExpr); ok {
			t.bindCall(a, call, st)
			return
		}
		// Plain alias: y := x.
		if obj := identObj(info, rhs); obj != nil {
			if g := t.binding[obj]; g != nil && st.live[g] {
				if lobj := lhsObj(info, a.Lhs[0]); lobj != nil {
					t.bind(lobj, g, st)
				}
			}
		}
		return
	}
	// Parallel assignment: bind acquires positionally.
	for i, rhs := range a.Rhs {
		if call, ok := ast.Unparen(rhs).(*ast.CallExpr); ok && t.isAcquire(call) {
			if i < len(a.Lhs) {
				t.bindNew(lhsObj(info, a.Lhs[i]), call.Pos(), st)
			}
		}
	}
}

// bindCall handles `lhs, ... := call(...)`: a direct acquire binds a
// new group; a call that consumes an acquire or a live alias in its
// arguments rebinds the group to the first result when that result
// can carry the resource.
func (t *pairTracker) bindCall(a *ast.AssignStmt, call *ast.CallExpr, st *state) {
	info := t.pass.TypesInfo
	lobj := lhsObj(info, a.Lhs[0])
	if t.isAcquire(call) {
		t.bindNew(lobj, call.Pos(), st)
		return
	}
	if lobj == nil || !t.isResourceVar(lobj.Type()) {
		// Result cannot carry the resource; still catch acquires
		// buried in the arguments with no way out.
		t.scanOrphanAcquires(call, st, call)
		return
	}
	for _, arg := range call.Args {
		if inner, ok := ast.Unparen(arg).(*ast.CallExpr); ok && t.isAcquire(inner) {
			g := &group{pos: inner.Pos()}
			t.bind(lobj, g, st)
			if t.deferReleased[lobj] {
				delete(st.live, g)
			}
			return
		}
		if obj := argBaseObj(info, arg); obj != nil {
			if g := t.binding[obj]; g != nil && st.live[g] {
				t.bind(lobj, g, st)
				return
			}
		}
	}
}

// argBaseObj resolves a call argument to the variable carrying it,
// looking through reslices: passing scratch[:0] into an append-style
// callee threads scratch's backing array just as passing scratch does.
func argBaseObj(info *types.Info, arg ast.Expr) types.Object {
	e := ast.Unparen(arg)
	for {
		sl, ok := e.(*ast.SliceExpr)
		if !ok {
			break
		}
		e = ast.Unparen(sl.X)
	}
	return identObj(info, e)
}

func (t *pairTracker) bindNew(obj types.Object, pos token.Pos, st *state) {
	if obj == nil {
		t.pass.Reportf(pos, "result of this call is discarded: the %s can never be released", t.what)
		return
	}
	g := &group{pos: pos}
	t.bind(obj, g, st)
	if t.deferReleased[obj] {
		delete(st.live, g)
	}
}

func (t *pairTracker) bind(obj types.Object, g *group, st *state) {
	if obj == nil {
		return
	}
	t.binding[obj] = g
	st.live[g] = true
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

// checkEscapes reports each live resource referenced by e.
func (t *pairTracker) checkEscapes(e ast.Expr, st *state, kind string, site ast.Node) {
	info := t.pass.TypesInfo
	ast.Inspect(e, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := info.Uses[id]
		if obj == nil {
			return true
		}
		g := t.binding[obj]
		if g == nil || !st.live[g] {
			return true
		}
		delete(st.live, g) // custody left this function either way
		if t.escape != nil {
			t.escape(g, site, kind)
		}
		return true
	})
}

// scanOrphanAcquires reports acquires nested in an expression whose
// result is not bound to any variable (e.g. a fresh buffer passed to
// a function that does not return it).
func (t *pairTracker) scanOrphanAcquires(e ast.Expr, st *state, site ast.Node) {
	ast.Inspect(e, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if t.isAcquire(call) {
			t.pass.Reportf(call.Pos(), "result of this call is not bound to a variable: the %s can never be released", t.what)
			return false
		}
		return true
	})
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
