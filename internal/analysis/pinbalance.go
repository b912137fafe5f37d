package analysis

// pinbalance proves buffer-pool pin discipline on the query and mutation
// paths: every node pinned by Tree.fetch/fetchMut, Pool.Get/GetMut, or
// Pool.NewNode, every query context taken from Tree.getQctx/beginRead,
// every MVCC snapshot taken by a Snapshot() call, and every write bracket
// opened by Tree.beginOp, is released (Tree.done, Pool.Unpin,
// Tree.releaseQctx, View.Release, Tree.publishOp/abortOp) on every path
// out of the function — by a deferred release or an explicit one per path.
//
// The write bracket matters beyond the page pool: publishOp commits and
// abortOp discards the stab-accelerator sidecar staging buffers, so a
// path that returns between beginOp and either close leaves staged
// sidecar records to be committed under some later, unrelated epoch —
// silently corrupting historical snapshot answers.
//
// A release resolves against the *live* pin on its page: the
// release-refetch-release idiom (done(id); fetchMut(id); ... done(id))
// creates two pins on the same ID, and each done call discharges the one
// currently held. A release with no live matching pin on some path is a
// double unpin.
//
// The write path's upgrade (Tree.mut(n), Pool.Upgrade(id)) is both at
// once: it consumes the read pin on the page — also when it fails — and
// yields a write pin on the same page, released the same way. The pointer
// that went in is the published version snapshots read from then on, so
// any later use of that variable (short of overwriting it, as in
// n, err = t.mut(n)) is reported.
//
// Ownership transfer is respected: a pin whose variable escapes the
// function (returned, stored into a struct/map/slice, or handed bare to a
// helper call) is no longer this function's to release and is not
// reported. Reading through the variable (v.Field, v.Method(...)) and
// passing it to a recognized release call are borrows, not escapes. The
// error-result idiom is modeled flow-sensitively: after
// `n, err := t.fetch(id)`, the `err != nil` arm holds no pin, so an early
// error return there is clean.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// PinBalance proves per-path pin/unpin balance on the audited packages.
var PinBalance = &Analyzer{
	Name: "pinbalance",
	Doc:  "prove every buffer-pool pin and query context is released on all paths (flow-sensitive)",
	Run:  runPinBalance,
	AppliesTo: func(pkgPath string) bool {
		// The tree core and the root package own pins; the forest, server,
		// and skeleton layers own MVCC snapshots; the accelerator sidecar
		// rides the core's write bracket. Everything else only borrows
		// nodes.
		return strings.HasSuffix(pkgPath, "internal/core") ||
			strings.HasSuffix(pkgPath, "internal/forest") ||
			strings.HasSuffix(pkgPath, "internal/server") ||
			strings.HasSuffix(pkgPath, "internal/skeleton") ||
			strings.HasSuffix(pkgPath, "internal/accel") ||
			!strings.Contains(pkgPath, "/")
	},
}

type pinKind uint8

const (
	pinPage pinKind = iota
	pinQctx
	pinSnap
	pinBracket
)

// pinInfo is the flow-independent description of one pin birth site.
type pinInfo struct {
	birth   ast.Node // the CFG node (assignment) that acquires the pin
	pos     token.Pos
	kind    pinKind
	desc    string // e.g. "t.fetch(t.root)"
	argKey  string // rendered page-ID argument; "" for NewNode
	varObj  types.Object
	errObj  types.Object
	aliases map[types.Object]bool // objects assigned from varObj.ID
	escaped bool

	// upgraded is the argument of an upgrade call (nil for other births)
	// and consumes the pins on its page the upgrade takes over; staleObj
	// is the variable the argument names when the result lands elsewhere,
	// i.e. the pre-upgrade pointer that must not be used again.
	upgraded ast.Expr
	consumes []*pinInfo
	staleObj types.Object
}

// pinFact is the per-path state of one pin.
type pinFact struct {
	held     tri
	deferred tri
	// errLive is true while the birth's error variable still describes
	// this acquisition, enabling `err != nil` edge refinement.
	errLive bool
	// stale is set while staleObj still holds the pre-upgrade pointer.
	stale tri
}

type pinState map[*pinInfo]*pinFact

type pinAnalysis struct {
	p       *Pass
	pins    []*pinInfo
	byBirth map[ast.Node]*pinInfo
	report  bool
}

func runPinBalance(p *Pass) {
	forEachFunc(p.Files, func(name string, decl *ast.FuncDecl, body *ast.BlockStmt) {
		a := &pinAnalysis{p: p, byBirth: make(map[ast.Node]*pinInfo)}
		a.collectPins(body)
		if len(a.pins) == 0 {
			return
		}
		g := BuildCFG(body)
		in, converged := Solve[pinState](g, a)
		if !converged {
			p.Reportf(body.Pos(), "%s: dataflow solver hit its step bound before reaching a fixpoint; pin-balance facts for this function are incomplete", name)
		}
		a.report = true
		for _, b := range g.Reachable() {
			s, ok := in[b]
			if !ok {
				continue
			}
			s = a.Clone(s)
			for _, n := range b.Nodes {
				s = a.Transfer(n, s)
			}
			for _, e := range b.Succs {
				if e.To != g.Exit || e.Kind == EdgePanic {
					continue
				}
				pos := body.Rbrace
				if len(b.Nodes) > 0 {
					pos = b.Nodes[len(b.Nodes)-1].Pos()
				}
				a.checkExit(name, pos, s)
			}
		}
	})
}

// collectPins finds every pin birth in the body (closures excluded — they
// are analyzed as their own functions), then resolves aliases and escapes.
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
		kind, argKey, desc, ok := a.pinSource(call)
		if !ok {
			return true
		}
		pi := &pinInfo{birth: n, pos: call.Pos(), kind: kind, argKey: argKey, desc: desc}
		if len(lhs) >= 1 {
			if id, ok := lhs[0].(*ast.Ident); ok && id.Name != "_" {
				pi.varObj = objOf(a.p.Info, id)
			}
		}
		if a.isUpgrade(call) {
			pi.upgraded = call.Args[0]
			if o := identObj(a.p.Info, pi.upgraded); o != pi.varObj {
				pi.staleObj = o
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
		if pi.upgraded != nil {
			pi.consumes = a.consumed(pi)
			// t.mut(n) names its page through the pin it consumes.
			for _, src := range pi.consumes {
				if pi.argKey == "" {
					pi.argKey = src.argKey
				}
			}
		}
		if pi.varObj == nil {
			continue
		}
		pi.aliases = a.collectAliases(body, pi.varObj)
		pi.escaped = a.escapes(body, pi)
	}
}

// isUpgrade reports whether the call is the write path's upgrade primitive.
func (a *pinAnalysis) isUpgrade(call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || len(call.Args) != 1 {
		return false
	}
	recv := namedTypeName(a.p.Info, sel.X)
	return (sel.Sel.Name == "mut" && recv == "Tree") || (sel.Sel.Name == "Upgrade" && recv == "Pool")
}

// consumed resolves the pins an upgrade birth takes over: those held in the
// node variable passed to mut, or on the page ID passed to Upgrade.
func (a *pinAnalysis) consumed(up *pinInfo) []*pinInfo {
	var out []*pinInfo
	if obj := identObj(a.p.Info, up.upgraded); obj != nil {
		for _, pi := range a.pins {
			if pi != up && pi.kind == pinPage && pi.varObj == obj {
				out = append(out, pi)
			}
		}
	}
	for _, pi := range a.matchPagePins(up.upgraded) {
		if pi != up {
			out = append(out, pi)
		}
	}
	return out
}

// collectAliases finds `x := v.ID` style assignments so a later release
// through the alias (t.done(old, false)) still matches the pin.
func (a *pinAnalysis) collectAliases(body *ast.BlockStmt, varObj types.Object) map[types.Object]bool {
	aliases := make(map[types.Object]bool)
	inspectNoFuncLit(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
			return true
		}
		sel, ok := as.Rhs[0].(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "ID" {
			return true
		}
		base, ok := sel.X.(*ast.Ident)
		if !ok || objOf(a.p.Info, base) != varObj {
			return true
		}
		if id, ok := as.Lhs[0].(*ast.Ident); ok && id.Name != "_" {
			if o := objOf(a.p.Info, id); o != nil {
				aliases[o] = true
			}
		}
		return true
	})
	return aliases
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
			if _, isRelease := a.releaseTargets(parent); isRelease || a.isUpgrade(parent) {
				return true // the release (or upgrade) itself is not an escape
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

// pinSource classifies a call as a pin acquisition.
func (a *pinAnalysis) pinSource(call *ast.CallExpr) (kind pinKind, argKey, desc string, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return 0, "", "", false
	}
	recv := namedTypeName(a.p.Info, sel.X)
	name := sel.Sel.Name
	switch {
	case (name == "fetch" || name == "fetchMut") && recv == "Tree" && len(call.Args) >= 1:
		argKey = exprText(a.p.Fset, call.Args[0])
	case (name == "Get" || name == "GetMut") && recv == "Pool" && len(call.Args) == 1:
		argKey = exprText(a.p.Fset, call.Args[0])
	case a.isUpgrade(call):
		// The write pin an upgrade yields. Upgrade(id) names its page; for
		// mut(n) collectPins copies the key of the pin n holds.
		if name == "Upgrade" {
			argKey = exprText(a.p.Fset, call.Args[0])
		}
		return pinPage, argKey, exprText(a.p.Fset, sel.X) + "." + name + "(" + exprText(a.p.Fset, call.Args[0]) + ")", true
	case name == "NewNode" && recv == "Pool":
		// Released only through the node's ID.
	case (name == "getQctx" || name == "beginRead") && recv == "Tree":
		return pinQctx, "", exprText(a.p.Fset, sel.X) + "." + name + "()", true
	case name == "beginOp" && recv == "Tree" && len(call.Args) == 0:
		// A write bracket: must reach publishOp or abortOp on every path
		// (both close the bracket and settle the sidecar staging).
		return pinBracket, "", exprText(a.p.Fset, sel.X) + ".beginOp()", true
	case name == "Snapshot" && recv != "" && len(call.Args) == 0:
		// An MVCC snapshot pin: any Snapshot() method on a named receiver
		// (Tree, Predictor, Forest, the core.Engine interface, Index).
		return pinSnap, "", exprText(a.p.Fset, sel.X) + ".Snapshot()", true
	default:
		return 0, "", "", false
	}
	desc = exprText(a.p.Fset, sel.X) + "." + name + "(" + argKey + ")"
	return pinPage, argKey, desc, true
}

// releaseTargets classifies a call as a pin release and resolves which
// tracked pins it releases. isRelease may be true with no targets (e.g.
// an Unpin of a page this function never pinned).
func (a *pinAnalysis) releaseTargets(call *ast.CallExpr) ([]*pinInfo, bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return nil, false
	}
	recv := namedTypeName(a.p.Info, sel.X)
	name := sel.Sel.Name
	switch {
	case name == "done" && recv == "Tree" && len(call.Args) == 2,
		name == "Unpin" && recv == "Pool" && len(call.Args) == 2:
		return a.matchPagePins(call.Args[0]), true
	case name == "releaseQctx" && recv == "Tree" && len(call.Args) == 1:
		var targets []*pinInfo
		argObj := identObj(a.p.Info, call.Args[0])
		for _, pi := range a.pins {
			if pi.kind != pinQctx {
				continue
			}
			if argObj == nil || pi.varObj == argObj {
				targets = append(targets, pi)
			}
		}
		return targets, true
	case (name == "publishOp" || name == "abortOp") && recv == "Tree":
		var targets []*pinInfo
		for _, pi := range a.pins {
			if pi.kind == pinBracket {
				targets = append(targets, pi)
			}
		}
		return targets, true
	case name == "Release" && len(call.Args) == 0:
		// Snapshot release: v.Release() discharges the snapshot held in v.
		var targets []*pinInfo
		xObj := identObj(a.p.Info, sel.X)
		for _, pi := range a.pins {
			if pi.kind == pinSnap && xObj != nil && pi.varObj == xObj {
				targets = append(targets, pi)
			}
		}
		return targets, true
	}
	return nil, false
}

// matchPagePins resolves a release call's page-ID argument against the
// tracked pins: v.ID on the pin variable, an alias of it, or the same
// rendered expression as the acquisition argument.
func (a *pinAnalysis) matchPagePins(arg ast.Expr) []*pinInfo {
	var targets []*pinInfo
	argObj := identObj(a.p.Info, arg)
	var idBase types.Object
	if sel, ok := arg.(*ast.SelectorExpr); ok && sel.Sel.Name == "ID" {
		idBase = identObj(a.p.Info, sel.X)
	}
	argText := ""
	for _, pi := range a.pins {
		if pi.kind != pinPage {
			continue
		}
		switch {
		case idBase != nil && pi.varObj == idBase:
		case argObj != nil && pi.aliases[argObj]:
		default:
			if pi.argKey == "" {
				continue
			}
			if argText == "" {
				argText = exprText(a.p.Fset, arg)
			}
			if argText != pi.argKey {
				continue
			}
		}
		targets = append(targets, pi)
	}
	return targets
}

func (a *pinAnalysis) EntryState() pinState { return make(pinState) }

func (a *pinAnalysis) Clone(s pinState) pinState {
	out := make(pinState, len(s))
	for k, f := range s {
		c := *f
		out[k] = &c
	}
	return out
}

func (a *pinAnalysis) Join(dst, src pinState) (pinState, bool) {
	changed := false
	for k, sf := range src {
		df, ok := dst[k]
		if !ok {
			nf := *sf
			nf.held = joinPath(triBot, sf.held)
			nf.deferred = joinPath(triBot, sf.deferred)
			nf.stale = joinPath(triBot, sf.stale)
			dst[k] = &nf
			changed = true
			continue
		}
		if h := joinPath(df.held, sf.held); h != df.held {
			df.held = h
			changed = true
		}
		if d := joinPath(df.deferred, sf.deferred); d != df.deferred {
			df.deferred = d
			changed = true
		}
		if st := joinPath(df.stale, sf.stale); st != df.stale {
			df.stale = st
			changed = true
		}
		if df.errLive && !sf.errLive {
			df.errLive = false
			changed = true
		}
	}
	for k, df := range dst {
		if _, ok := src[k]; ok {
			continue
		}
		if h := joinPath(df.held, triBot); h != df.held {
			df.held = h
			changed = true
		}
		if d := joinPath(df.deferred, triBot); d != df.deferred {
			df.deferred = d
			changed = true
		}
		if st := joinPath(df.stale, triBot); st != df.stale {
			df.stale = st
			changed = true
		}
	}
	return dst, changed
}

func (a *pinAnalysis) Transfer(n ast.Node, s pinState) pinState {
	if a.report {
		a.reportStaleUses(n, s)
	}
	if pi, ok := a.byBirth[n]; ok {
		// An upgrade takes over the pins on its page, success or not.
		for _, src := range pi.consumes {
			if f := s[src]; f != nil {
				f.held = triNo
			}
		}
		// The assignment also overwrites whatever the variables held
		// before: other pins sharing the variable or error object lose
		// their tracking/refinement first.
		if as, ok := n.(*ast.AssignStmt); ok {
			a.transferAssign(as, s)
		}
		f := s[pi]
		if f == nil {
			f = &pinFact{}
			s[pi] = f
		}
		f.held = triYes
		f.errLive = pi.errObj != nil
		f.stale = triNo
		if pi.staleObj != nil {
			f.stale = triYes
		}
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
		// The release discharges the live pin(s) on its target: with the
		// release-refetch-release idiom two pins share an ID, and a done
		// call belongs to whichever is currently held. Only when no
		// matching pin is live is this a double unpin.
		var live []*pinInfo
		for _, pi := range targets {
			if f := s[pi]; f != nil && (f.held == triYes || f.held == triMaybe) {
				live = append(live, pi)
			}
		}
		if len(live) == 0 && a.report {
			var released *pinInfo
			for _, pi := range targets {
				if f := s[pi]; f != nil && f.held == triNo {
					if released == nil || pi.pos > released.pos {
						released = pi
					}
				}
			}
			if released != nil {
				a.p.Reportf(call.Pos(), "releases %s but it was already released on this path (double unpin)", released.desc)
			}
		}
		if len(live) == 0 {
			live = targets
		}
		for _, pi := range live {
			f := s[pi]
			if f == nil {
				f = &pinFact{}
				s[pi] = f
			}
			f.held = triNo
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
	mark := func(call *ast.CallExpr) {
		targets, isRelease := a.releaseTargets(call)
		if !isRelease {
			return
		}
		for _, pi := range targets {
			f := s[pi]
			if f == nil {
				f = &pinFact{}
				s[pi] = f
			}
			f.deferred = triYes
		}
	}
	if lit, ok := ds.Call.Fun.(*ast.FuncLit); ok {
		inspectNoFuncLit(lit, func(m ast.Node) bool {
			if call, ok := m.(*ast.CallExpr); ok {
				mark(call)
			}
			return true
		})
		return
	}
	mark(ds.Call)
}

// TransferEdge kills pins on the failed arm of their own error check:
// after `n, err := t.fetch(id)`, the `err != nil` path holds no pin.
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

func (a *pinAnalysis) checkExit(fn string, pos token.Pos, s pinState) {
	pins := make([]*pinInfo, 0, len(s))
	for pi := range s {
		pins = append(pins, pi)
	}
	sort.Slice(pins, func(i, j int) bool { return pins[i].pos < pins[j].pos })
	for _, pi := range pins {
		if pi.escaped {
			continue
		}
		f := s[pi]
		if f.held != triYes && f.held != triMaybe {
			continue
		}
		if f.deferred == triYes {
			continue
		}
		line := a.p.Fset.Position(pi.pos).Line
		what := fmt.Sprintf("the page pinned by %s at line %d", pi.desc, line)
		release := "unpin it on this path or defer the release"
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
		switch {
		case f.deferred == triMaybe:
			a.p.Reportf(pos, "%s may return without releasing %s: its deferred release is scheduled on only some paths", fn, what)
		case f.held == triYes:
			a.p.Reportf(pos, "%s returns without releasing %s; %s", fn, what, release)
		default:
			a.p.Reportf(pos, "%s may return without releasing %s (released on some paths but not this one)", fn, what)
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
