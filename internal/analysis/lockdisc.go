package analysis

import (
	"go/ast"
	"go/types"
)

// LockDisc checks one invariant of every sync.Mutex/RWMutex in the
// module: while one is held, a function must not
//
//   - call through a function value that came from outside the
//     function (a struct field such as a stored hook, a parameter,
//     or a package-level variable) — callbacks re-enter arbitrary
//     code and deadlock or stall every waiter on the lock;
//   - call the log/slog packages or a *slog.Logger method — logging
//     does I/O and takes its own locks;
//   - call a method on a *different* value of the lock owner's own
//     type — instance A reaching into instance B while holding A's
//     lock is the classic lock-ordering deadlock.
//
// Locally-defined closures, interface calls, and methods on the locked
// value itself are all permitted. Lock regions are tracked per selector
// path (s.mu.Lock … s.mu.Unlock), deferred unlocks hold to function
// end, and an `if mu.TryLock()` body is treated as a held region.
var LockDisc = &Analyzer{
	Name: "lockdisc",
	Doc:  "check that no callback, log call, or other-instance method runs while a sync mutex is held",
	Run:  runLockDisc,
}

func runLockDisc(pass *Pass) error {
	for _, file := range pass.SourceFiles() {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			w := &lockWalker{pass: pass}
			w.collectLocalClosures(fn.Body)
			w.walkStmts(fn.Body.List, lockSet{})
		}
	}
	return nil
}

// lockRegion is one held mutex.
type lockRegion struct {
	key       string     // selector path of the mutex, e.g. "s.mu"
	ownerName string     // selector path of the owning value, e.g. "s"
	ownerType types.Type // named type of the owner (pointer-stripped)
	deferred  bool       // unlocked only by a deferred call: held to function end
}

// lockSet is the per-path set of held locks, keyed by mutex path.
type lockSet map[string]*lockRegion

func (s lockSet) clone() lockSet {
	c := make(lockSet, len(s))
	for k, v := range s {
		c[k] = v
	}
	return c
}

func (s lockSet) union(o lockSet) {
	for k, v := range o {
		if _, ok := s[k]; !ok {
			s[k] = v
		}
	}
}

type lockWalker struct {
	pass *Pass
	// localClosures are variables assigned a func literal in this
	// function: calling them under a lock is calling our own code.
	localClosures map[types.Object]bool
}

func (w *lockWalker) collectLocalClosures(body *ast.BlockStmt) {
	info := w.pass.TypesInfo
	w.localClosures = make(map[types.Object]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				if i >= len(n.Rhs) {
					break
				}
				if _, ok := ast.Unparen(n.Rhs[i]).(*ast.FuncLit); ok {
					if obj := lhsObj(info, lhs); obj != nil {
						w.localClosures[obj] = true
					}
				}
			}
		case *ast.ValueSpec:
			for i, name := range n.Names {
				if i < len(n.Values) {
					if _, ok := ast.Unparen(n.Values[i]).(*ast.FuncLit); ok {
						if obj := info.Defs[name]; obj != nil {
							w.localClosures[obj] = true
						}
					}
				}
			}
		}
		return true
	})
}

// mutexMethod decodes a call to a sync mutex method, returning the
// receiver path expression and the method name ("Lock", "RUnlock",
// "TryLock", …).
func (w *lockWalker) mutexMethod(call *ast.CallExpr) (recv ast.Expr, method string, ok bool) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return nil, "", false
	}
	fn, _ := w.pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return nil, "", false
	}
	switch fn.Name() {
	case "Lock", "Unlock", "RLock", "RUnlock", "TryLock", "TryRLock":
		return sel.X, fn.Name(), true
	}
	return nil, "", false
}

// regionFor builds the lockRegion for a mutex receiver expression.
func (w *lockWalker) regionFor(recv ast.Expr) *lockRegion {
	r := &lockRegion{key: types.ExprString(recv)}
	if sel, ok := ast.Unparen(recv).(*ast.SelectorExpr); ok {
		r.ownerName = types.ExprString(sel.X)
		if tv, ok := w.pass.TypesInfo.Types[sel.X]; ok {
			if n := namedType(tv.Type); n != nil {
				r.ownerType = n
			}
		}
	}
	return r
}

func (w *lockWalker) walkStmts(list []ast.Stmt, held lockSet) (terminated bool) {
	for _, s := range list {
		if w.walkStmt(s, held) {
			return true
		}
	}
	return false
}

func (w *lockWalker) walkStmt(s ast.Stmt, held lockSet) (terminated bool) {
	switch s := s.(type) {
	case *ast.ExprStmt:
		if call, ok := ast.Unparen(s.X).(*ast.CallExpr); ok {
			if recv, method, ok := w.mutexMethod(call); ok {
				r := w.regionFor(recv)
				switch method {
				case "Lock", "RLock":
					held[r.key] = r
				case "Unlock", "RUnlock":
					delete(held, r.key)
				}
				return false
			}
			if isTerminatorCall(w.pass.TypesInfo, call) {
				w.checkCalls(s, held)
				return true
			}
		}
		w.checkCalls(s, held)
	case *ast.DeferStmt:
		if recv, method, ok := w.mutexMethod(s.Call); ok && (method == "Unlock" || method == "RUnlock") {
			r := w.regionFor(recv)
			if cur, exists := held[r.key]; exists {
				cur.deferred = true
			}
			return false
		}
		// A deferred closure runs after the function body; calls
		// inside it execute outside any region released by then, so
		// only check it against deferred-held locks. Pragmatically:
		// skip (deferred unlocks and deferred callbacks interleave in
		// LIFO order the walker cannot see).
	case *ast.IfStmt:
		if s.Init != nil {
			w.walkStmt(s.Init, held)
		}
		w.checkCallsExpr(s.Cond, held)
		thenHeld := held.clone()
		// `if mu.TryLock() { … }`: the then-branch holds the lock.
		if call, ok := ast.Unparen(s.Cond).(*ast.CallExpr); ok {
			if recv, method, ok := w.mutexMethod(call); ok && (method == "TryLock" || method == "TryRLock") {
				r := w.regionFor(recv)
				thenHeld[r.key] = r
			}
		}
		termThen := w.walkStmts(s.Body.List, thenHeld)
		elseHeld := held.clone()
		termElse := false
		hasElse := s.Else != nil
		if hasElse {
			termElse = w.walkStmt(s.Else, elseHeld)
		}
		for k := range held {
			delete(held, k)
		}
		if !termThen {
			held.union(thenHeld)
		}
		if !termElse {
			held.union(elseHeld)
		}
		return termThen && termElse && hasElse
	case *ast.ForStmt:
		if s.Init != nil {
			w.walkStmt(s.Init, held)
		}
		w.checkCallsExpr(s.Cond, held)
		body := held.clone()
		if term := w.walkStmts(s.Body.List, body); !term {
			for k := range held {
				delete(held, k)
			}
			held.union(body)
		}
	case *ast.RangeStmt:
		w.checkCallsExpr(s.X, held)
		body := held.clone()
		if term := w.walkStmts(s.Body.List, body); !term {
			for k := range held {
				delete(held, k)
			}
			held.union(body)
		}
	case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
		return w.walkCases(s, held)
	case *ast.BlockStmt:
		return w.walkStmts(s.List, held)
	case *ast.LabeledStmt:
		return w.walkStmt(s.Stmt, held)
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			w.checkCallsExpr(r, held)
		}
		return true
	case *ast.AssignStmt, *ast.GoStmt, *ast.SendStmt, *ast.IncDecStmt, *ast.DeclStmt:
		w.checkCalls(s, held)
	}
	return false
}

func (w *lockWalker) walkCases(s ast.Stmt, held lockSet) (terminated bool) {
	var clauses []ast.Stmt
	hasDefault := false
	switch s := s.(type) {
	case *ast.SwitchStmt:
		if s.Init != nil {
			w.walkStmt(s.Init, held)
		}
		w.checkCallsExpr(s.Tag, held)
		clauses = s.Body.List
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			w.walkStmt(s.Init, held)
		}
		clauses = s.Body.List
	case *ast.SelectStmt:
		clauses = s.Body.List
	}
	merged := lockSet{}
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
				w.walkStmt(c.Comm, held)
			}
			body = c.Body
		}
		cs := held.clone()
		if term := w.walkStmts(body, cs); !term {
			merged.union(cs)
			anyLive = true
		}
	}
	if !hasDefault {
		merged.union(held)
		anyLive = true
	}
	for k := range held {
		delete(held, k)
	}
	held.union(merged)
	return !anyLive && len(clauses) > 0
}

// checkCalls scans a statement's expressions for calls made while
// locks are held. Function-literal bodies are skipped unless the
// literal is invoked on the spot.
func (w *lockWalker) checkCalls(s ast.Stmt, held lockSet) {
	if len(held) == 0 {
		return
	}
	ast.Inspect(s, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			if lit, ok := ast.Unparen(n.Fun).(*ast.FuncLit); ok {
				// Immediately-invoked literal: its body runs here,
				// under the same locks.
				w.walkStmts(lit.Body.List, held.clone())
				return false
			}
			w.checkOneCall(n, held)
		}
		return true
	})
}

func (w *lockWalker) checkCallsExpr(e ast.Expr, held lockSet) {
	if e == nil || len(held) == 0 {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			w.checkOneCall(n, held)
		}
		return true
	})
}

func heldNames(held lockSet) string {
	for k := range held {
		return k
	}
	return ""
}

func (w *lockWalker) checkOneCall(call *ast.CallExpr, held lockSet) {
	info := w.pass.TypesInfo

	// The mutex's own methods are the region bookkeeping itself.
	if _, _, ok := w.mutexMethod(call); ok {
		return
	}

	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj := info.Uses[fun]
		switch obj := obj.(type) {
		case *types.Builtin, *types.TypeName, *types.Nil:
			return
		case *types.Var:
			if w.localClosures[obj] {
				return
			}
			if _, ok := obj.Type().Underlying().(*types.Signature); ok {
				w.pass.Reportf(call.Pos(), "call through function value %q while holding %s: callbacks must be invoked after the lock is released", fun.Name, heldNames(held))
			}
		case *types.Func:
			w.checkStaticCallee(call, obj, held)
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok && sel.Kind() == types.FieldVal {
			if _, isSig := sel.Type().Underlying().(*types.Signature); isSig {
				w.pass.Reportf(call.Pos(), "call through callback field %q while holding %s: capture it and invoke after unlocking", types.ExprString(fun), heldNames(held))
				return
			}
		}
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			w.checkStaticCallee(call, fn, held)
			// Cross-instance discipline: a method on another value of
			// the lock owner's own type.
			if recvTV, ok := info.Types[fun.X]; ok {
				reName := types.ExprString(fun.X)
				if rn := namedType(recvTV.Type); rn != nil {
					for _, r := range held {
						if r.ownerType != nil && types.Identical(r.ownerType, rn) && r.ownerName != reName {
							w.pass.Reportf(call.Pos(), "method call on %s while holding %s's lock: cross-instance calls under a held lock invert lock order", reName, r.ownerName)
						}
					}
				}
			}
		}
	}
}

// checkStaticCallee flags log/slog calls under a lock.
func (w *lockWalker) checkStaticCallee(call *ast.CallExpr, fn *types.Func, held lockSet) {
	if fn.Pkg() == nil {
		return
	}
	switch fn.Pkg().Path() {
	case "log", "log/slog":
		w.pass.Reportf(call.Pos(), "%s.%s while holding %s: logging does I/O and takes its own locks — log after unlocking", fn.Pkg().Name(), fn.Name(), heldNames(held))
	}
}
