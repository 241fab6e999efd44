package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"maps"
	"sort"
	"strings"
)

// LockOrderAnalyzer enforces intra-type lock discipline for the
// mutex-guarded types the pipeline grew in PRs 2–3 (scanner limiter
// and rng, obs registry, netsim host table, resolver caches). Go's
// sync.Mutex is not reentrant, so the classic refactoring accident —
// a method takes its receiver's lock and then calls a sibling method
// that takes the same lock — deadlocks the first time the path runs,
// and only the path that runs it knows. Two shapes are reported:
//
//   - self-deadlock: while holding recv.mu (Lock, or RLock for the
//     write-acquire case), the method calls another method of the same
//     receiver that can — transitively, through same-receiver calls —
//     acquire recv.mu again;
//
//   - defer-less early return: a method Locks recv.mu without
//     deferring the Unlock and reaches a return before any Unlock on
//     that path, leaving the type locked forever.
//
// The path analysis is deliberately forgiving: an Unlock anywhere
// inside a branching statement releases the tracked lock for the code
// after it, so the guard-clause idiom (`if done { mu.Unlock(); return }`)
// stays silent. The analyzer under-reports rather than flagging idioms.
var LockOrderAnalyzer = &Analyzer{
	Name: "lockorder",
	Doc: "flag same-receiver mutex self-deadlocks (lock held across a " +
		"call that re-acquires it) and early returns while holding a " +
		"defer-less lock",
	RunProject: runLockOrder,
}

// lockKind distinguishes write from read acquisition.
type lockKind int

const (
	lockWrite lockKind = iota // Lock
	lockRead                  // RLock
)

// acquireSet maps a receiver-lock path ("mu", "idMu") to the kinds a
// method may acquire it with.
type acquireSet map[string]map[lockKind]bool

func (s acquireSet) add(path string, k lockKind) bool {
	if s[path] == nil {
		s[path] = map[lockKind]bool{}
	}
	if s[path][k] {
		return false
	}
	s[path][k] = true
	return true
}

// methodInfo is the per-method lock summary.
type methodInfo struct {
	node *CallNode
	// recv is the receiver identifier object, used to root lock paths.
	recv *types.Var
	// acquires is the transitive may-acquire set.
	acquires acquireSet
	// calls are same-receiver sibling calls: callee method -> sites.
	calls map[*types.Func][]ast.Node
}

func runLockOrder(pass *ProjectPass) {
	// Group methods by their receiver's named type.
	byType := map[*types.TypeName][]*methodInfo{}
	var typeOrder []*types.TypeName
	for _, node := range pass.Project.Graph.Nodes {
		if node.Func == nil || node.Decl == nil || node.Decl.Body == nil {
			continue
		}
		sig := node.Func.Type().(*types.Signature)
		if sig.Recv() == nil {
			continue
		}
		tn := receiverTypeName(sig.Recv().Type())
		if tn == nil {
			continue
		}
		mi := summarizeMethod(node)
		if mi == nil {
			continue
		}
		if byType[tn] == nil {
			typeOrder = append(typeOrder, tn)
		}
		byType[tn] = append(byType[tn], mi)
	}

	for _, tn := range typeOrder {
		methods := byType[tn]
		byFunc := map[*types.Func]*methodInfo{}
		for _, mi := range methods {
			byFunc[mi.node.Func] = mi
		}
		propagateAcquires(methods, byFunc)
		for _, mi := range methods {
			checkMethodPaths(pass, mi, byFunc)
		}
	}
}

// receiverTypeName resolves the named type behind a method receiver.
func receiverTypeName(t types.Type) *types.TypeName {
	if named, ok := deref(t).(*types.Named); ok {
		return named.Obj()
	}
	return nil
}

// summarizeMethod records a method's direct lock acquisitions and its
// same-receiver sibling calls. Function literals inside the body are
// excluded: they may run on another goroutine, where re-acquisition is
// contention, not deadlock.
func summarizeMethod(node *CallNode) *methodInfo {
	recvField := node.Decl.Recv.List[0]
	if len(recvField.Names) == 0 {
		return nil // anonymous receiver: no lock paths can root on it
	}
	recv, _ := node.Pkg.Info.Defs[recvField.Names[0]].(*types.Var)
	if recv == nil {
		return nil
	}
	mi := &methodInfo{
		node:     node,
		recv:     recv,
		acquires: acquireSet{},
		calls:    map[*types.Func][]ast.Node{},
	}
	info := node.Pkg.Info
	inspectOwn(node.Decl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if path, kind, acquire, ok := receiverLockOp(info, recv, call); ok && acquire {
			mi.acquires.add(path, kind)
			return true
		}
		if fn := siblingCall(info, recv, call); fn != nil {
			mi.calls[fn] = append(mi.calls[fn], call)
		}
		return true
	})
	return mi
}

// receiverLockOp matches calls of the form recv.path.Lock() (or
// RLock/Unlock/RUnlock) where path is a selector chain rooted at the
// method receiver and the callee is sync.Mutex or sync.RWMutex. acquire
// tells Lock/RLock from Unlock/RUnlock, kind the write from the read
// pair.
func receiverLockOp(info *types.Info, recv *types.Var, call *ast.CallExpr) (path string, kind lockKind, acquire, ok bool) {
	sel, selOk := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !selOk {
		return "", 0, false, false
	}
	fn, _ := info.Uses[sel.Sel].(*types.Func)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", 0, false, false
	}
	switch fn.Name() {
	case "Lock", "Unlock":
		kind = lockWrite
	case "RLock", "RUnlock":
		kind = lockRead
	default:
		return "", 0, false, false
	}
	path, ok = receiverPath(info, recv, sel.X)
	return path, kind, !strings.HasSuffix(fn.Name(), "Unlock"), ok
}

// receiverPath renders a selector chain ("mu", "inner.mu") if it is
// rooted at the method receiver; ok is false otherwise.
func receiverPath(info *types.Info, recv *types.Var, e ast.Expr) (string, bool) {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return "", info.ObjectOf(e) == recv
	case *ast.SelectorExpr:
		prefix, ok := receiverPath(info, recv, e.X)
		if !ok {
			return "", false
		}
		if prefix == "" {
			return e.Sel.Name, true
		}
		return prefix + "." + e.Sel.Name, true
	case *ast.StarExpr:
		return receiverPath(info, recv, e.X)
	}
	return "", false
}

// siblingCall resolves recv.Method(...) calls to the callee, nil for
// anything else.
func siblingCall(info *types.Info, recv *types.Var, call *ast.CallExpr) *types.Func {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	if path, rooted := receiverPath(info, recv, sel.X); !rooted || path != "" {
		return nil // not a direct method on the receiver itself
	}
	fn, _ := info.Uses[sel.Sel].(*types.Func)
	if fn == nil {
		return nil
	}
	if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() == nil {
		return nil
	}
	return fn
}

// propagateAcquires closes each method's acquire set over
// same-receiver calls (fixpoint; the graphs are tiny).
func propagateAcquires(methods []*methodInfo, byFunc map[*types.Func]*methodInfo) {
	for changed := true; changed; {
		changed = false
		for _, mi := range methods {
			for callee := range mi.calls {
				cmi := byFunc[callee]
				if cmi == nil {
					continue
				}
				for path, kinds := range cmi.acquires {
					for k := range kinds {
						if mi.acquires.add(path, k) {
							changed = true
						}
					}
				}
			}
		}
	}
}

// heldLock is the tracked state of one receiver lock.
type heldLock struct {
	kind     lockKind
	deferred bool // a defer recv.path.Unlock() covers returns
	pos      token.Pos
}

// heldLocks is the flow state: the receiver locks held on the current
// path, by lock path.
type heldLocks map[string]heldLock

// checkMethodPaths walks one method's statements on the shared flow
// walker, tracking which receiver locks are held, reporting
// re-acquiring sibling calls and defer-less early returns.
func checkMethodPaths(pass *ProjectPass, mi *methodInfo, byFunc map[*types.Func]*methodInfo) {
	info := mi.node.Pkg.Info
	fl := flow[heldLocks]{
		clone: maps.Clone[heldLocks],
		visit: func(n ast.Node, held heldLocks) {
			switch s := n.(type) {
			case *ast.ExprStmt:
				if call, ok := s.X.(*ast.CallExpr); ok {
					if path, kind, acquire, ok := receiverLockOp(info, mi.recv, call); ok {
						if acquire {
							held[path] = heldLock{kind: kind, pos: call.Pos()}
						} else {
							delete(held, path)
						}
						return
					}
				}
			case *ast.DeferStmt:
				if path, _, acquire, ok := receiverLockOp(info, mi.recv, s.Call); ok && !acquire {
					if h, isHeld := held[path]; isHeld {
						h.deferred = true
						held[path] = h
					}
					return
				}
			}
			checkLocks(pass, mi, byFunc, n, held)
			if ret, ok := n.(*ast.ReturnStmt); ok {
				reportEarlyReturns(pass, mi, ret, held)
			}
		},
		// After a branching statement a lock is held only if every
		// continuing path holds it — and not even then if some branch,
		// continuing or not, unlocks it: the lock may or may not be held
		// afterwards, and the analyzer prefers silence to guessing.
		join: func(of ast.Stmt, falls []heldLocks) heldLocks {
			held := falls[0]
			for _, other := range falls[1:] {
				for path := range held {
					if _, both := other[path]; !both {
						delete(held, path)
					}
				}
			}
			inspectOwn(of, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok {
					if path, _, acquire, ok := receiverLockOp(info, mi.recv, call); ok && !acquire {
						delete(held, path)
					}
				}
				return true
			})
			return held
		},
	}
	fl.walk(mi.node.Decl.Body.List, heldLocks{})
}

// reportEarlyReturns flags returns reached while a defer-less lock is
// held.
func reportEarlyReturns(pass *ProjectPass, mi *methodInfo, ret *ast.ReturnStmt, held heldLocks) {
	paths := make([]string, 0, len(held))
	for path, h := range held {
		if !h.deferred {
			paths = append(paths, path)
		}
	}
	sort.Strings(paths)
	for _, path := range paths {
		pass.Reportf(mi.node.Pkg.Fset, ret.Pos(),
			"return while holding %s.%s with no deferred Unlock; unlock before returning or `defer %s.%s.Unlock()` at the Lock site",
			mi.recv.Name(), path, mi.recv.Name(), path)
	}
}

// checkLocks reports sibling calls anywhere under root (function
// literals excluded) that can re-acquire a lock currently held.
func checkLocks(pass *ProjectPass, mi *methodInfo, byFunc map[*types.Func]*methodInfo, root ast.Node, held heldLocks) {
	if len(held) == 0 {
		return
	}
	info := mi.node.Pkg.Info
	inspectOwn(root, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := siblingCall(info, mi.recv, call)
		if fn == nil {
			return true
		}
		cmi := byFunc[fn]
		if cmi == nil {
			return true
		}
		paths := make([]string, 0, len(held))
		for path := range held {
			paths = append(paths, path)
		}
		sort.Strings(paths)
		for _, path := range paths {
			kinds := cmi.acquires[path]
			if kinds == nil {
				continue
			}
			h := held[path]
			// Re-acquiring Lock deadlocks under any held kind; RLock
			// deadlocks only against a held write lock (and RLock-
			// after-RLock is legal, if inadvisable).
			if kinds[lockWrite] || (h.kind == lockWrite && kinds[lockRead]) {
				pass.Reportf(mi.node.Pkg.Fset, call.Pos(),
					"calling %s while holding %s.%s self-deadlocks: it acquires %s.%s again (lock taken at line %d)",
					fn.Name(), mi.recv.Name(), path, mi.recv.Name(), path,
					mi.node.Pkg.Fset.Position(h.pos).Line)
			}
		}
		return true
	})
}
