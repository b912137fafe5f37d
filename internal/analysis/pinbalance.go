package analysis

// pinbalance proves that the read and write paths release what they take:
// every query context taken from Tree.getQctx/beginRead, every MVCC
// snapshot taken by a Snapshot() call, and every write bracket opened by
// Tree.beginOp, is released (Tree.releaseQctx, View.Release,
// Tree.publishOp/abortOp) on every path out of the function — by a
// deferred release or an explicit one per path. Buffer-pool page accesses
// take nothing that needs releasing, so they are not tracked.
//
// The write bracket matters beyond the page pool: publishOp commits and
// abortOp discards the stab-accelerator sidecar staging buffers, so a
// path that returns between beginOp and either close leaves staged
// sidecar records to be committed under some later, unrelated epoch —
// silently corrupting historical snapshot answers.
//
// The write path's upgrade (Tree.mut(n), Pool.Upgrade(id)) retires the
// version passed in: from then on it is the published version snapshots
// read, so any later use of that variable (short of overwriting it, as in
// n, err = t.mut(n)) is reported.
//
// Ownership transfer is respected: a context or snapshot whose variable
// escapes the function (returned, stored into a struct/map/slice, or
// handed bare to a helper call) is no longer this function's to release
// and is not reported. Reading through the variable (v.Field,
// v.Method(...)) and passing it to a recognized release call are borrows,
// not escapes. The error-result idiom is modeled flow-sensitively: after
// `qc, err := t.beginRead(v, q)`, the `err != nil` arm holds no context,
// so an early error return there is clean.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// PinBalance proves per-path release balance on the audited packages.
var PinBalance = &Analyzer{
	Name: "pinbalance",
	Doc:  "prove every query context, snapshot and write bracket is released on all paths, and no upgraded node is reused (flow-sensitive)",
	Run:  runPinBalance,
	AppliesTo: func(pkgPath string) bool {
		// The tree core owns query contexts and brackets; the root
		// package and server layers own MVCC snapshots; the accelerator
		// sidecar rides the core's write bracket.
		return strings.HasSuffix(pkgPath, "internal/core") ||
			strings.HasSuffix(pkgPath, "internal/server") ||
			strings.HasSuffix(pkgPath, "internal/accel") ||
			!strings.Contains(pkgPath, "/")
	},
}

type pinKind uint8

const (
	pinQctx pinKind = iota
	pinSnap
	pinBracket
	// pinUpgrade is not a pin: an upgrade's result landed in another
	// variable than its argument, which must not be read again.
	pinUpgrade
)

// pinInfo is the flow-independent description of one pin birth site.
type pinInfo struct {
	birth   ast.Node // the CFG node (assignment) that acquires the pin
	pos     token.Pos
	kind    pinKind
	desc    string // e.g. "t.getQctx()"
	varObj  types.Object
	errObj  types.Object
	escaped bool

	// staleObj is the variable an upgrade's argument names: the
	// pre-upgrade pointer that must not be used again.
	staleObj types.Object
}

// pinFact is the per-path state of one pin.
type pinFact struct {
	pathFact
	// errLive is true while the birth's error variable still describes
	// this acquisition, enabling `err != nil` edge refinement.
	errLive bool
	// stale is set while staleObj still holds the pre-upgrade pointer.
	stale tri
}

func (f *pinFact) join(o *pinFact) bool {
	src := pinFact{errLive: true} // absent: errLive stays as it is
	if o != nil {
		src = *o
	}
	changed := f.pathFact.join(src.pathFact)
	if joinTri(&f.stale, src.stale) {
		changed = true
	}
	if f.errLive && !src.errLive {
		f.errLive = false
		changed = true
	}
	return changed
}

type pinState map[*pinInfo]*pinFact

// fact returns the state's fact for pi, creating it on first use.
func (s pinState) fact(pi *pinInfo) *pinFact {
	f := s[pi]
	if f == nil {
		f = &pinFact{}
		s[pi] = f
	}
	return f
}

type pinAnalysis struct {
	p       *Pass
	fn      string
	pins    []*pinInfo
	byBirth map[ast.Node]*pinInfo
	report  bool
}

func runPinBalance(p *Pass) {
	forEachFunc(p.Files, func(name string, decl *ast.FuncDecl, body *ast.BlockStmt) {
		a := &pinAnalysis{p: p, fn: name, byBirth: make(map[ast.Node]*pinInfo)}
		if a.collectPins(body); len(a.pins) > 0 {
			runFlow(p, name, "pin-balance", body, a)
		}
	})
}

// collectPins finds every pin birth in the body (closures excluded — they
// are analyzed as their own functions), then resolves escapes.
func (a *pinAnalysis) collectPins(body *ast.BlockStmt) {
	inspectNoFuncLit(body, func(n ast.Node) bool {
		var call *ast.CallExpr
		var lhs []ast.Expr
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Rhs) != 1 {
				return true
			}
			c, ok := n.Rhs[0].(*ast.CallExpr)
			if !ok {
				return true
			}
			call, lhs = c, n.Lhs
		case *ast.ExprStmt:
			c, ok := n.X.(*ast.CallExpr)
			if !ok {
				return true
			}
			call = c
		default:
			return true
		}
		kind, desc, ok := a.pinSource(call)
		if !ok {
			return true
		}
		pi := &pinInfo{birth: n, pos: call.Pos(), kind: kind, desc: desc}
		if len(lhs) >= 1 {
			if id, ok := lhs[0].(*ast.Ident); ok && id.Name != "_" {
				pi.varObj = objOf(a.p.Info, id)
			}
		}
		if kind == pinUpgrade {
			if pi.staleObj = identObj(a.p.Info, call.Args[0]); pi.staleObj == nil || pi.staleObj == pi.varObj {
				return true // the result overwrote the argument: nothing stale
			}
		}
		if len(lhs) >= 2 {
			if id, ok := lhs[1].(*ast.Ident); ok && id.Name != "_" {
				pi.errObj = objOf(a.p.Info, id)
			}
		}
		a.pins = append(a.pins, pi)
		a.byBirth[n] = pi
		return true
	})
	for _, pi := range a.pins {
		if pi.varObj != nil && pi.kind != pinUpgrade {
			pi.escaped = a.escapes(body, pi)
		}
	}
}

// escapes reports whether the pin variable leaves the function's custody:
// any bare use that is not a field/method access, a nil comparison, an
// overwrite, or an argument to a recognized release call.
func (a *pinAnalysis) escapes(body *ast.BlockStmt, pi *pinInfo) bool {
	escaped := false
	var stack []ast.Node
	ast.Inspect(body, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, n)
		if escaped {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok || objOf(a.p.Info, id) != pi.varObj {
			return true
		}
		if len(stack) < 2 {
			return true
		}
		switch parent := stack[len(stack)-2].(type) {
		case *ast.SelectorExpr:
			if parent.X == id {
				return true // v.Field or v.Method(...): a borrow
			}
		case *ast.BinaryExpr:
			return true // comparisons (v == nil) do not retain the pointer
		case *ast.CallExpr:
			if _, isRelease := a.releaseTargets(parent); isRelease {
				return true // the release itself is not an escape
			}
		case *ast.AssignStmt:
			for _, l := range parent.Lhs {
				if l == id {
					return true // overwrite, not a use
				}
			}
		}
		escaped = true
		return false
	})
	return escaped
}

// pinSource classifies a call as a pin acquisition or an upgrade.
func (a *pinAnalysis) pinSource(call *ast.CallExpr) (kind pinKind, desc string, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return 0, "", false
	}
	recv := namedTypeName(a.p.Info, sel.X)
	name := sel.Sel.Name
	desc = exprText(a.p.Fset, sel.X) + "." + name + "()"
	switch {
	case len(call.Args) == 1 && (name == "mut" && recv == "Tree" || name == "Upgrade" && recv == "Pool"):
		return pinUpgrade, exprText(a.p.Fset, sel.X) + "." + name + "(" + exprText(a.p.Fset, call.Args[0]) + ")", true
	case (name == "getQctx" || name == "beginRead") && recv == "Tree":
		return pinQctx, desc, true
	case name == "beginOp" && recv == "Tree" && len(call.Args) == 0:
		// A write bracket: must reach publishOp or abortOp on every path
		// (both close the bracket and settle the sidecar staging).
		return pinBracket, desc, true
	case name == "Snapshot" && recv != "" && len(call.Args) == 0:
		// An MVCC snapshot pin: any Snapshot() method on a named receiver
		// (Tree, Index).
		return pinSnap, desc, true
	}
	return 0, "", false
}

// releaseTargets classifies a call as a pin release and resolves which
// tracked pins it releases. isRelease may be true with no targets (e.g.
// a Release of a view this function never took).
func (a *pinAnalysis) releaseTargets(call *ast.CallExpr) ([]*pinInfo, bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return nil, false
	}
	recv := namedTypeName(a.p.Info, sel.X)
	name := sel.Sel.Name
	var match func(*pinInfo) bool
	switch {
	case name == "releaseQctx" && recv == "Tree" && len(call.Args) == 1:
		argObj := identObj(a.p.Info, call.Args[0])
		match = func(pi *pinInfo) bool { return pi.kind == pinQctx && (argObj == nil || pi.varObj == argObj) }
	case (name == "publishOp" || name == "abortOp") && recv == "Tree":
		match = func(pi *pinInfo) bool { return pi.kind == pinBracket }
	case name == "Release" && len(call.Args) == 0:
		// Snapshot release: v.Release() discharges the snapshot held in v.
		xObj := identObj(a.p.Info, sel.X)
		match = func(pi *pinInfo) bool { return pi.kind == pinSnap && xObj != nil && pi.varObj == xObj }
	default:
		return nil, false
	}
	var targets []*pinInfo
	for _, pi := range a.pins {
		if match(pi) {
			targets = append(targets, pi)
		}
	}
	return targets, true
}

func (a *pinAnalysis) EntryState() pinState                    { return make(pinState) }
func (a *pinAnalysis) Clone(s pinState) pinState               { return cloneFacts(s) }
func (a *pinAnalysis) Join(dst, src pinState) (pinState, bool) { return joinFacts(dst, src) }
func (a *pinAnalysis) replay()                                 { a.report = true }

func (a *pinAnalysis) Transfer(n ast.Node, s pinState) pinState {
	if a.report {
		a.reportStaleUses(n, s)
	}
	if pi, ok := a.byBirth[n]; ok {
		// The assignment also overwrites whatever the variables held
		// before: other pins sharing the variable or error object lose
		// their tracking/refinement first.
		if as, ok := n.(*ast.AssignStmt); ok {
			a.transferAssign(as, s)
		}
		f := s.fact(pi)
		f.held, f.stale = triYes, triNo
		if pi.kind == pinUpgrade {
			f.held, f.stale = triNo, triYes
		}
		f.errLive = pi.errObj != nil
		return s
	}
	if ds, ok := n.(*ast.DeferStmt); ok {
		a.transferDefer(ds, s)
		return s
	}
	inspectCFGNode(n, func(m ast.Node) bool {
		call, ok := m.(*ast.CallExpr)
		if !ok {
			return true
		}
		targets, isRelease := a.releaseTargets(call)
		if !isRelease {
			return true
		}
		// The release discharges the live pin(s) on its target. When no
		// target is held on every path, it is a double release: on this
		// path when none is live, else on a path that released it and
		// joins here (the one-arm release of an error if).
		var live []*pinInfo
		must := false
		for _, pi := range targets {
			if f := s[pi]; f != nil && (f.held == triYes || f.held == triMaybe) {
				live = append(live, pi)
				must = must || f.held == triYes
			}
		}
		if a.report && !must {
			was, where := triNo, "on this path (double release)"
			if len(live) > 0 {
				was, where = triMaybe, "on a path that reaches here (double release on that path)"
			}
			var released *pinInfo
			for _, pi := range targets {
				if f := s[pi]; f != nil && f.held == was && (released == nil || pi.pos > released.pos) {
					released = pi
				}
			}
			if released != nil {
				a.p.Reportf(call.Pos(), "releases %s but it was already released %s", released.desc, where)
			}
		}
		if len(live) == 0 {
			live = targets
		}
		for _, pi := range live {
			s.fact(pi).held = triNo
		}
		return true
	})
	if as, ok := n.(*ast.AssignStmt); ok {
		a.transferAssign(as, s)
	}
	if r, ok := n.(*ast.RangeStmt); ok {
		// The range head re-assigns its key/value each iteration; an
		// overwrite of a pin or error variable there must be observed.
		if as := rangeHeadAssign(r); as != nil {
			a.transferAssign(as, s)
		}
	}
	return s
}

// transferAssign handles overwrites: reassigning a pin's error variable
// disables its edge refinement; reassigning the pin variable itself ends
// this function's view of the pin.
func (a *pinAnalysis) transferAssign(as *ast.AssignStmt, s pinState) {
	for _, l := range as.Lhs {
		id, ok := l.(*ast.Ident)
		if !ok {
			continue
		}
		obj := objOf(a.p.Info, id)
		if obj == nil {
			continue
		}
		for pi, f := range s {
			if pi.birth == ast.Node(as) {
				continue
			}
			if pi.errObj == obj {
				f.errLive = false
			}
			if pi.varObj == obj {
				f.held = triNo
			}
			if pi.staleObj == obj {
				f.stale = triNo
			}
		}
	}
}

// reportStaleUses flags every read of a variable that still holds the
// pointer an upgrade consumed; an assignment's left-hand side is an
// overwrite, not a read.
func (a *pinAnalysis) reportStaleUses(n ast.Node, s pinState) {
	for pi, f := range s {
		if f.stale != triYes && f.stale != triMaybe {
			continue
		}
		overwritten := make(map[*ast.Ident]bool)
		inspectCFGNode(n, func(m ast.Node) bool {
			if as, ok := m.(*ast.AssignStmt); ok {
				for _, l := range as.Lhs {
					if id, ok := l.(*ast.Ident); ok {
						overwritten[id] = true
					}
				}
			}
			if id, ok := m.(*ast.Ident); ok && !overwritten[id] && objOf(a.p.Info, id) == pi.staleObj {
				a.p.Reportf(id.Pos(), "uses %s after %s upgraded it: the pre-upgrade pointer is the published version snapshots read; use the upgrade's result", id.Name, pi.desc)
			}
			return true
		})
	}
}

// transferDefer records releases scheduled by defer, directly or inside a
// deferred closure.
func (a *pinAnalysis) transferDefer(ds *ast.DeferStmt, s pinState) {
	deferredCalls(ds, func(call *ast.CallExpr) {
		targets, _ := a.releaseTargets(call)
		for _, pi := range targets {
			s.fact(pi).deferred = triYes
		}
	})
}

// TransferEdge kills pins on the failed arm of their own error check:
// after `qc, err := t.beginRead(v, q)`, the `err != nil` path holds no
// context.
func (a *pinAnalysis) TransferEdge(e Edge, s pinState) pinState {
	if e.Cond == nil {
		return s
	}
	bin, ok := e.Cond.(*ast.BinaryExpr)
	if !ok {
		return s
	}
	var operand ast.Expr
	switch {
	case isNilIdent(bin.X):
		operand = bin.Y
	case isNilIdent(bin.Y):
		operand = bin.X
	default:
		return s
	}
	errFailed := (bin.Op == token.NEQ && e.Kind == EdgeCondTrue) ||
		(bin.Op == token.EQL && e.Kind == EdgeCondFalse)
	if !errFailed {
		return s
	}
	obj := identObj(a.p.Info, operand)
	if obj == nil {
		return s
	}
	for pi, f := range s {
		if f.errLive && pi.errObj == obj {
			f.held = triNo
		}
	}
	return s
}

func (a *pinAnalysis) checkExit(pos token.Pos, s pinState) {
	pins := make([]*pinInfo, 0, len(s))
	for pi := range s {
		pins = append(pins, pi)
	}
	sort.Slice(pins, func(i, j int) bool { return pins[i].pos < pins[j].pos })
	for _, pi := range pins {
		if pi.escaped {
			continue
		}
		l := s[pi].leak()
		if l == noLeak {
			continue
		}
		line := a.p.Fset.Position(pi.pos).Line
		var what, release string
		switch pi.kind {
		case pinQctx:
			what = fmt.Sprintf("the query context from %s at line %d", pi.desc, line)
			release = "call releaseQctx on this path or defer it"
		case pinSnap:
			what = fmt.Sprintf("the snapshot from %s at line %d", pi.desc, line)
			release = "call its Release on this path or defer it"
		case pinBracket:
			what = fmt.Sprintf("the write bracket opened by %s at line %d", pi.desc, line)
			release = "commit it with publishOp or roll it back with abortOp on this path"
		}
		switch l {
		case leakDeferMaybe:
			a.p.Reportf(pos, "%s may return without releasing %s: its deferred release is scheduled on only some paths", a.fn, what)
		case leakHeld:
			a.p.Reportf(pos, "%s returns without releasing %s; %s", a.fn, what, release)
		case leakSomePaths:
			a.p.Reportf(pos, "%s may return without releasing %s (released on some paths but not this one)", a.fn, what)
		}
	}
}

// namedTypeName resolves the named type of an expression's (possibly
// pointer) type, or "".
func namedTypeName(info *types.Info, e ast.Expr) string {
	tv, ok := info.Types[e]
	if !ok || tv.Type == nil {
		return ""
	}
	t := tv.Type
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return ""
}

// objOf resolves an identifier whether it defines or uses the object.
func objOf(info *types.Info, id *ast.Ident) types.Object {
	if o := info.Defs[id]; o != nil {
		return o
	}
	return info.Uses[id]
}

func identObj(info *types.Info, e ast.Expr) types.Object {
	id, ok := e.(*ast.Ident)
	if !ok {
		return nil
	}
	return objOf(info, id)
}

func isNilIdent(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "nil"
}
