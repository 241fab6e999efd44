package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// BufAliasAnalyzer flags []byte aliases that outlive the window their
// backing memory is valid for. Three buffer classes are tracked, each
// with its own validity window:
//
//   - caller-provided buffers ([]byte and *[]byte parameters): valid
//     for the duration of the call. Returning a subslice, or storing
//     one somewhere that survives the call (a receiver field, a
//     package-level variable, a channel), hands the caller's memory to
//     code that will read it after the caller has moved on — the
//     recycled-buffer serving path rewrites that memory on the very
//     next packet.
//   - pooled buffers (sync.Pool Get results): valid until the matching
//     Put. Any store that survives the function (whole or subslice) is
//     flagged; poolsafe checks the Put discipline itself, bufalias
//     checks that no alias survives it.
//   - loop-read buffers (declared outside a loop, filled by a net or
//     io.Reader-style read inside it): valid for one iteration. Handing the buffer
//     or a subslice to a goroutine, a channel, or a growing slice from
//     inside the loop races with the next iteration's read.
//
// The analysis is intra-procedural and deliberately shallow: aliases
// are tracked through plain assignments, derefs, and slice
// expressions only — not through struct fields or call results — so a
// finding is near-certain to be real. Functions carrying a reasoned
// //repro:allocok waiver are skipped entirely.
var BufAliasAnalyzer = &Analyzer{
	Name: "bufalias",
	Doc: "subslices of caller-provided, pooled, or loop-read buffers " +
		"must not outlive their reuse window",
	Run: runBufAlias,
}

// bufOrigin classifies where a tracked buffer's memory comes from.
type bufOrigin int

const (
	originParam bufOrigin = iota
	originPooled
)

func (o bufOrigin) String() string {
	if o == originPooled {
		return "pooled"
	}
	return "caller-provided"
}

// bufInfo is the tracking record of one buffer variable: its origin,
// and whether this variable is already a subslice of the original.
type bufInfo struct {
	origin bufOrigin
	sub    bool
}

func runBufAlias(pass *Pass) {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if reason, ok := parseDirectives(fd.Doc)[AllocOKDirective]; ok && reason != "" {
				continue
			}
			a := &bufAliaser{pass: pass, info: pass.Info, bufs: map[types.Object]bufInfo{}}
			a.seedParams(fd)
			a.walkBody(fd)
		}
	}
}

type bufAliaser struct {
	pass *Pass
	info *types.Info
	bufs map[types.Object]bufInfo
	// fnScope holds the parameter/receiver objects of the current
	// function: stores into THEIR fields survive the call.
	fnScope map[types.Object]bool
}

// seedParams registers every []byte / *[]byte parameter as a
// caller-provided buffer (pooled buffers are typically held behind a
// pointer, so both forms count everywhere) and records the function's
// param/receiver objects.
func (a *bufAliaser) seedParams(fd *ast.FuncDecl) {
	a.fnScope = map[types.Object]bool{}
	seed := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, field := range fl.List {
			for _, name := range field.Names {
				obj := a.info.Defs[name]
				if obj == nil {
					continue
				}
				a.fnScope[obj] = true
				if isByteSlice(deref(obj.Type())) {
					a.bufs[obj] = bufInfo{origin: originParam}
				}
			}
		}
	}
	seed(fd.Recv)
	seed(fd.Type.Params)
}

// bufRoot resolves an expression to a tracked buffer through derefs
// and slice expressions. sub reports whether a slice expression was
// crossed (the result aliases part of the buffer rather than being the
// variable itself).
func (a *bufAliaser) bufRoot(e ast.Expr) (obj types.Object, info bufInfo, sub, ok bool) {
	obj, crossed := rootVar(a.info, e, hopDeref|hopSlice)
	info, ok = a.bufs[obj]
	return obj, info, crossed&hopSlice != 0 || info.sub, ok
}

// walkBody runs the alias scan over the function body in source order:
// assignments extend the tracked set, sinks report.
func (a *bufAliaser) walkBody(fd *ast.FuncDecl) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.AssignStmt:
			a.assign(s)
		case *ast.ReturnStmt:
			a.checkReturn(s)
		case *ast.SendStmt:
			if obj, bi, sub, ok := a.bufRoot(s.Value); ok && (sub || bi.origin == originPooled) {
				a.pass.Reportf(s.Value.Pos(),
					"%s of the %s buffer %s is sent on a channel; the receiver reads it after the buffer is reused — copy before sending",
					aliasNoun(sub), bi.origin, obj.Name())
			}
		case *ast.ForStmt, *ast.RangeStmt:
			a.checkLoopReads(loopBody(s), s.Pos())
		}
		return true
	})
}

// aliasNoun names what escaped: the buffer itself or a subslice of it.
func aliasNoun(sub bool) string {
	if sub {
		return "a subslice"
	}
	return "the whole"
}

// assign extends tracking through plain copies/derivations and flags
// stores that survive the call.
func (a *bufAliaser) assign(s *ast.AssignStmt) {
	for i, lhs := range s.Lhs {
		if i >= len(s.Rhs) {
			break
		}
		rhs := s.Rhs[i]
		// New pooled buffers: bp := pool.Get().(*[]byte).
		if isSyncPoolGet(a.info, rhs) {
			if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
				if obj := a.info.Defs[id]; obj != nil && isByteSlice(deref(obj.Type())) {
					a.bufs[obj] = bufInfo{origin: originPooled}
				}
			}
			continue
		}
		obj, bi, sub, tracked := a.bufRoot(rhs)
		if !tracked {
			continue
		}
		// Propagate through a plain local copy: y := x, y := x[i:j].
		if lobj, _ := rootVar(a.info, lhs, 0); lobj != nil {
			// A store into a package-level variable survives every call.
			if isPackageLevel(lobj) {
				a.pass.Reportf(lhs.Pos(),
					"%s of the %s buffer %s is stored in package-level variable %s and outlives the call — copy it instead",
					aliasNoun(sub), bi.origin, obj.Name(), lobj.Name())
				continue
			}
			a.bufs[lobj] = bufInfo{origin: bi.origin, sub: sub}
			continue
		}
		// Stores through fields/indexes of the function's own
		// parameters or receiver survive the call; whole-parameter
		// stores (constructor idiom) are exempt, pooled buffers and
		// subslices are not.
		if !sub && bi.origin == originParam {
			continue
		}
		if root, kind := a.storeTarget(lhs); root != nil {
			a.pass.Reportf(lhs.Pos(),
				"%s of the %s buffer %s is stored in %s %s and outlives the call — copy it instead",
				aliasNoun(sub), bi.origin, obj.Name(), kind, root.Name())
		}
	}
}

// storeTarget classifies an assignment LHS whose written-to memory
// survives the current call: a field or element reached from a
// parameter or the receiver, or from a package-level variable. Writes
// through locals are invisible escapes only if the local itself
// escapes, which is beyond this analysis — they are accepted.
func (a *bufAliaser) storeTarget(lhs ast.Expr) (types.Object, string) {
	obj, crossed := rootVar(a.info, lhs, hopDeref|hopField|hopIndex)
	switch {
	case obj == nil || crossed == 0:
		return nil, ""
	case a.fnScope[obj]:
		return obj, "a field of"
	case isPackageLevel(obj):
		return obj, "package-level"
	}
	return nil, ""
}

// checkReturn flags returned subslices of tracked buffers. Whole
// caller-provided buffers may be returned (append-style APIs);
// anything pooled, and any subslice of a parameter, hands out memory
// the function no longer controls.
func (a *bufAliaser) checkReturn(s *ast.ReturnStmt) {
	for _, r := range s.Results {
		obj, bi, sub, ok := a.bufRoot(r)
		if !ok {
			continue
		}
		if bi.origin == originPooled {
			a.pass.Reportf(r.Pos(),
				"%s of the pooled buffer %s is returned; after Put the pool hands this memory to another goroutine — copy it or return before Put",
				aliasNoun(sub), obj.Name())
			continue
		}
		if sub {
			a.pass.Reportf(r.Pos(),
				"a subslice of the caller-provided buffer %s is returned; the caller may recycle the buffer while the alias is live — document the aliasing or copy",
				obj.Name())
		}
	}
}

// refillTarget is readInto widened to every Read, ReadFrom,
// ReadFromUDP or ReadMsgUDP method whose first parameter is a byte
// slice: a buffer an io.Reader, *os.File or *bufio.Reader refills each
// iteration races with an escaped alias exactly as a socket read does.
// ctxprop and wiretaint keep readInto alone — a file or in-memory read
// neither blocks on a peer nor carries wire input.
func refillTarget(info *types.Info, call *ast.CallExpr) ast.Expr {
	fn := calleeFunc(info, call)
	if fn == nil || len(call.Args) == 0 {
		return nil
	}
	switch fn.Name() {
	case "Read", "ReadFrom", "ReadFromUDP", "ReadMsgUDP":
		if sig := fn.Type().(*types.Signature); sig.Recv() != nil && isByteSlice(deref(sig.Params().At(0).Type())) {
			return call.Args[0]
		}
	}
	return readInto(info, call)
}

// checkLoopReads finds buffers declared before the loop that a read
// call refills inside it, then flags escapes of those buffers from
// within the loop body: goroutine arguments, function-literal
// captures, channel sends, and growing-slice appends all retain the
// alias into the next iteration's read.
func (a *bufAliaser) checkLoopReads(body *ast.BlockStmt, loopPos token.Pos) {
	reused := map[types.Object]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			obj, _ := rootVar(a.info, refillTarget(a.info, call), hopDeref|hopSlice)
			if obj != nil && obj.Pos() < loopPos && isByteSlice(deref(obj.Type())) {
				reused[obj] = true
			}
		}
		return true
	})
	if len(reused) == 0 {
		return
	}
	escape := func(e ast.Node, how string) {
		ast.Inspect(e, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			if obj := a.info.Uses[id]; obj != nil && reused[obj] {
				a.pass.Reportf(id.Pos(),
					"read buffer %s is refilled every iteration of this loop but %s; the alias races with the next read — copy the bytes first",
					obj.Name(), how)
			}
			return true
		})
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.GoStmt:
			for _, arg := range s.Call.Args {
				escape(arg, "escapes to a goroutine")
			}
			escape(s.Call.Fun, "escapes to a goroutine")
			return false
		case *ast.SendStmt:
			escape(s.Value, "is sent on a channel")
			return false
		case *ast.FuncLit:
			escape(s.Body, "is captured by a function literal")
			return false
		case *ast.CallExpr:
			// msgs = append(msgs, buf[:n]) retains the header; a spread
			// append(dst, buf...) copies the bytes and is clean.
			if builtinCall(a.info, s) == "append" && s.Ellipsis == token.NoPos {
				for _, arg := range s.Args[1:] {
					if isByteSlice(deref(a.info.TypeOf(arg))) {
						escape(arg, "is retained by a growing slice")
					}
				}
			}
		}
		return true
	})
}
