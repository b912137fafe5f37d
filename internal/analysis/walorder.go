package analysis

// walorder is a typestate check over internal/store proving the WAL
// durability protocol order inside each function:
//
//   - write-ahead: the batch is appended (and synced) to the log before it
//     is applied to the data pages — applying while an unsynced log write
//     is outstanding, or logging after applying, inverts the protocol;
//   - sync-before-success: Commit must not return nil while a logged batch
//     has not been applied and synced to the inner store;
//   - latch: once ErrBroken latches (ws.sick is assigned), no further log
//     or data mutation may run on that path.
//
// Operations are recognized structurally, matching WALStore's shape: calls
// through the `.log` and `.inner` fields (a log Truncate is a log write,
// so it too must precede the log sync), the applyLocked helper method, and
// assignments to the `.sick` field — including latching closures
// (`fail := func(err error) error { ws.sick = ...; ... }`).
//
// The state is a pair of phase sets — phases performed on *every* path
// reaching a point (must) and on *at least one* path (may) — so replay's
// "apply an already-durable batch" path (no in-function log append)
// proves clean while a reordered Commit does not. Violations are reported
// only from must-facts: a phase performed on just one arm of a merged
// branch never triggers a report on the other arm's continuation.

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// WALOrder proves the commit protocol's operation order.
var WALOrder = &Analyzer{
	Name: "walorder",
	Doc:  "prove WAL durability order: log+sync before apply, sync before Commit returns, no writes after ErrBroken",
	Run:  runWALOrder,
	AppliesTo: func(pkgPath string) bool {
		return strings.HasSuffix(pkgPath, "internal/store")
	},
}

// Protocol phases, accumulated as bitmasks (one must-set, one may-set).
const (
	phaseLogged uint8 = 1 << iota // batch appended to the log
	phaseLogSynced
	phaseApplied // batch applied to the inner store
	phaseInnerSynced
)

type walOp uint8

const (
	opNone walOp = iota
	opLogWrite
	opLogSync
	opApply
	opInnerSync
	opLatch
)

// walState is the per-path protocol state. On a straight-line path
// must == may; they diverge only at branch merges, where must keeps the
// intersection of the arms' phases and may their union.
type walState struct {
	must uint8 // phases performed on every path reaching here
	may  uint8 // phases performed on at least one path reaching here
	sick tri
}

type walAnalysis struct {
	p        *Pass
	fnName   string
	latchers map[types.Object]bool // closure vars whose body assigns .sick
	report   bool
}

func runWALOrder(p *Pass) {
	forEachFunc(p.Files, func(name string, decl *ast.FuncDecl, body *ast.BlockStmt) {
		a := &walAnalysis{p: p, fnName: name, latchers: collectLatchers(p.Info, body)}
		g := BuildCFG(body)
		in, converged := Solve[*walState](g, a)
		if !converged {
			p.Reportf(body.Pos(), "%s: dataflow solver hit its step bound before reaching a fixpoint; WAL-order facts for this function are incomplete", name)
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
		}
	})
}

// collectLatchers finds local closures whose bodies latch the sick field,
// so calls to them count as latches at the call site.
func collectLatchers(info *types.Info, body *ast.BlockStmt) map[types.Object]bool {
	latchers := make(map[types.Object]bool)
	inspectNoFuncLit(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
			return true
		}
		lit, ok := as.Rhs[0].(*ast.FuncLit)
		if !ok {
			return true
		}
		assigns := false
		ast.Inspect(lit.Body, func(m ast.Node) bool {
			if inner, ok := m.(*ast.AssignStmt); ok {
				for _, l := range inner.Lhs {
					if sel, ok := l.(*ast.SelectorExpr); ok && sel.Sel.Name == "sick" {
						assigns = true
					}
				}
			}
			return true
		})
		if !assigns {
			return true
		}
		if id, ok := as.Lhs[0].(*ast.Ident); ok {
			if o := objOf(info, id); o != nil {
				latchers[o] = true
			}
		}
		return true
	})
	return latchers
}

func (a *walAnalysis) EntryState() *walState { return &walState{} }

func (a *walAnalysis) Clone(s *walState) *walState {
	c := *s
	return &c
}

func (a *walAnalysis) Join(dst, src *walState) (*walState, bool) {
	changed := false
	if m := dst.must & src.must; m != dst.must {
		dst.must = m
		changed = true
	}
	if m := dst.may | src.may; m != dst.may {
		dst.may = m
		changed = true
	}
	if k := joinPath(dst.sick, src.sick); k != dst.sick {
		dst.sick = k
		changed = true
	}
	return dst, changed
}

func (a *walAnalysis) TransferEdge(e Edge, s *walState) *walState { return s }

func (a *walAnalysis) Transfer(n ast.Node, s *walState) *walState {
	inspectCFGNode(n, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.CallExpr:
			a.applyOp(a.classifyCall(m), m.Pos(), s)
		case *ast.AssignStmt:
			for _, l := range m.Lhs {
				if sel, ok := l.(*ast.SelectorExpr); ok && sel.Sel.Name == "sick" {
					a.applyOp(opLatch, m.Pos(), s)
				}
			}
		}
		return true
	})
	if ret, ok := n.(*ast.ReturnStmt); ok {
		a.checkReturn(ret, s)
	}
	return s
}

// classifyCall maps a call to a protocol operation by its receiver chain
// and method name.
func (a *walAnalysis) classifyCall(call *ast.CallExpr) walOp {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		if a.latchers[identObj(a.p.Info, call.Fun)] {
			return opLatch
		}
		return opNone
	}
	name := sel.Sel.Name
	if name == "applyLocked" {
		return opApply
	}
	field, ok := sel.X.(*ast.SelectorExpr)
	if !ok {
		return opNone
	}
	switch field.Sel.Name {
	case "log":
		switch name {
		case "WriteAt", "Write", "Truncate":
			return opLogWrite
		case "Sync":
			return opLogSync
		}
	case "inner":
		switch name {
		case "Write", "ApplyAlloc", "ApplyFree":
			return opApply
		case "Sync":
			return opInnerSync
		}
	}
	return opNone
}

func (a *walAnalysis) applyOp(op walOp, pos token.Pos, s *walState) {
	if op == opNone {
		return
	}
	if a.report && s.sick == triYes && op != opLatch {
		a.p.Reportf(pos, "%s mutates the store after ErrBroken has latched on this path; a broken store must stop", a.fnName)
	}
	// Reports key on must-facts (the offending phase happened on every
	// path) and clear on may-facts (no path performed the mitigating
	// phase), so a phase from one arm of a merged branch can neither
	// trigger a violation nor falsely excuse one.
	switch op {
	case opLogWrite:
		if a.report && s.must&phaseApplied != 0 {
			a.p.Reportf(pos, "%s writes the write-ahead log after applying to the data pages (write-ahead order inverted)", a.fnName)
		}
		// A log write (a batch or a cut) invalidates every later phase on
		// this path.
		s.must, s.may = phaseLogged, phaseLogged
	case opLogSync:
		if s.must&phaseLogged != 0 {
			s.must |= phaseLogSynced
		}
		if s.may&phaseLogged != 0 {
			s.may |= phaseLogSynced
		}
	case opApply:
		if a.report && s.must&phaseLogged != 0 && s.may&phaseLogSynced == 0 {
			a.p.Reportf(pos, "%s applies the batch to the data pages before the log append is synced; a crash here loses the write-ahead guarantee", a.fnName)
		}
		s.must |= phaseApplied
		s.may |= phaseApplied
	case opInnerSync:
		if s.must&phaseApplied != 0 {
			s.must |= phaseInnerSynced
		}
		if s.may&phaseApplied != 0 {
			s.may |= phaseInnerSynced
		}
	case opLatch:
		s.sick = triYes
	}
}

// checkReturn flags `return nil` from Commit while a logged batch is not
// yet durable in the data file.
func (a *walAnalysis) checkReturn(ret *ast.ReturnStmt, s *walState) {
	if !a.report || a.fnName != "Commit" || len(ret.Results) != 1 {
		return
	}
	if !isNilIdent(ret.Results[0]) {
		return
	}
	if s.must&phaseLogged != 0 && s.may&phaseInnerSynced == 0 {
		a.p.Reportf(ret.Pos(), "Commit returns success before the applied batch is synced to the data file (Sync must precede the successful return)")
	}
}
