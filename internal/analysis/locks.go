package analysis

// locks builds the CFG of every function and proves, per path, the repo's
// lock discipline:
//
//   - each mutex acquisition is matched by a deferred or all-paths
//     release: no leak on an early return, no double release, no double
//     acquisition (Go mutexes are not reentrant), no read-to-write upgrade,
//     and no deferred release firing after an explicit one;
//   - a *locked helper* — a function whose doc comment says its caller
//     must hold the lock ("caller must hold t.mu", "requires the write
//     lock", "must hold the shard lock"), or whose name carries the
//     "Locked" suffix (evictLocked, writeBackLocked) — never acquires or
//     releases a mutex it did not declare itself;
//   - an exported function calls a locked helper only where a mutex is
//     held on every path to the call. Unexported functions are exempt:
//     they run under the lock their exported entry point took. So are
//     function literals, which run in a context the pass cannot see.
//
// Lock identity is textual: the rendered receiver expression plus the
// lock mode, which matches how the repo names mutexes (one receiver chain
// per critical section). A release with no prior acquisition in the same
// function is accepted — that is the lock-handoff idiom (a helper
// releasing its caller's lock, or a deferred closure analyzed as its own
// function). A mutex declared inside the function (`var mu sync.Mutex`)
// guards that function's scratch state: a locked helper may take it, and
// holding it does not satisfy a helper's contract.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// Locks proves the lock discipline per path.
var Locks = &Analyzer{
	Name:      "locks",
	Doc:       "prove every Lock/RLock is released on all paths, and locked helpers run under a lock they never take",
	Run:       runLocks,
	AppliesTo: libraryPackage,
}

// lockDocRe recognizes the doc-comment phrases that mark a locked helper.
var lockDocRe = regexp.MustCompile(`(?i)(callers?\s+must\s+hold|requires)\s+(the\s+)?((write|read|shard)\s+lock|lock|t\.mu|[a-z]+\.mu)`)

// lockedByName reports whether a function name follows the "Locked"
// suffix convention, which marks a locked helper even without the doc
// phrase.
func lockedByName(name string) bool {
	return len(name) > len("Locked") && strings.HasSuffix(name, "Locked")
}

// The sync.Mutex/RWMutex methods of interest.
var lockAcquire = map[string]bool{"Lock": true, "RLock": true}
var lockRelease = map[string]bool{"Unlock": true, "RUnlock": true}

// lockFact is the per-path state of one lock key.
type lockFact struct {
	pathFact
	pos   token.Pos // the first acquisition
	local bool      // the mutex is declared inside the analyzed function
}

func (f *lockFact) join(o *lockFact) bool {
	if o == nil {
		return f.pathFact.join(pathFact{})
	}
	if !f.pos.IsValid() {
		f.pos = o.pos
	}
	return f.pathFact.join(o.pathFact)
}

type lockState map[string]*lockFact

// mutexOp is one Lock/RLock/Unlock/RUnlock call.
type mutexOp struct {
	key     string // dataflow fact key: receiver text plus mode
	base    string // receiver text
	method  string
	acquire bool
	local   bool
}

// lockAnalysis implements FlowProblem[lockState] for one function.
type lockAnalysis struct {
	p        *Pass
	body     *ast.BlockStmt
	helpers  map[types.Object]bool
	fn       string
	helper   bool // the function is a locked helper
	exported bool // the function is an exported non-helper declaration
	report   bool // diagnostics enabled (replay pass)
}

func runLocks(p *Pass) {
	helpers := make(map[types.Object]bool)
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			byDoc := fd.Doc != nil && lockDocRe.MatchString(fd.Doc.Text())
			if obj := p.Info.Defs[fd.Name]; obj != nil && (byDoc || lockedByName(fd.Name.Name)) {
				helpers[obj] = true
			}
		}
	}
	forEachFunc(p.Files, func(name string, decl *ast.FuncDecl, body *ast.BlockStmt) {
		a := &lockAnalysis{p: p, body: body, helpers: helpers, fn: name}
		if body == decl.Body {
			a.helper = helpers[p.Info.Defs[decl.Name]]
			a.exported = !a.helper && decl.Name.IsExported()
		}
		runFlow(p, name, "lock", body, a)
	})
}

func (a *lockAnalysis) EntryState() lockState                     { return make(lockState) }
func (a *lockAnalysis) Clone(s lockState) lockState               { return cloneFacts(s) }
func (a *lockAnalysis) Join(dst, src lockState) (lockState, bool) { return joinFacts(dst, src) }
func (a *lockAnalysis) replay()                                   { a.report = true }

func (a *lockAnalysis) TransferEdge(e Edge, s lockState) lockState { return s }

func (a *lockAnalysis) Transfer(n ast.Node, s lockState) lockState {
	if ds, ok := n.(*ast.DeferStmt); ok {
		a.transferDefer(ds, s)
		return s
	}
	inspectCFGNode(n, func(m ast.Node) bool {
		call, ok := m.(*ast.CallExpr)
		if !ok {
			return true
		}
		op, isOp := a.mutexOp(call)
		switch {
		case !isOp:
			a.checkHelperCall(call, s)
		case a.takesCallersLock(op, call.Pos()):
			// Reported once here; the caller's lock is not tracked.
		case op.acquire:
			a.applyAcquire(s, op, call.Pos())
		default:
			a.applyRelease(s, op, call.Pos())
		}
		return true
	})
	return s
}

// fact returns the state's fact for op's key, creating it on first use.
func (a *lockAnalysis) fact(s lockState, op mutexOp) *lockFact {
	f := s[op.key]
	if f == nil {
		f = &lockFact{local: op.local}
		s[op.key] = f
	}
	return f
}

// takesCallersLock reports whether op is a locked helper acquiring or
// releasing a mutex it did not declare, and diagnoses it: the caller holds
// that lock, so acquiring deadlocks and releasing breaks the caller's
// critical section.
func (a *lockAnalysis) takesCallersLock(op mutexOp, pos token.Pos) bool {
	if !a.helper || op.local {
		return false
	}
	if a.report {
		why := "acquires it (%s.%s); sync mutexes are not reentrant"
		if !op.acquire {
			why = "releases it (%s.%s), ending its caller's critical section"
		}
		a.p.Reportf(pos, "%s requires the caller to hold the lock but "+why, a.fn, op.base, op.method)
	}
	return true
}

// checkHelperCall diagnoses an exported function calling a locked helper
// where no mutex of its own is held on every path.
func (a *lockAnalysis) checkHelperCall(call *ast.CallExpr, s lockState) {
	if !a.report || !a.exported {
		return
	}
	callee := calleeObject(a.p.Info, call)
	if callee == nil || !a.helpers[callee] {
		return
	}
	maybe := ""
	for k, f := range s {
		if f.local {
			continue
		}
		switch f.held {
		case triYes:
			return
		case triMaybe:
			if maybe == "" || k < maybe {
				maybe = k
			}
		}
	}
	if maybe != "" {
		a.p.Reportf(call.Pos(), "exported %s calls %s, which requires holding the lock, but %s is held on only some paths here",
			a.fn, callee.Name(), lockDisplay(maybe))
		return
	}
	a.p.Reportf(call.Pos(), "exported %s calls %s, which requires holding the lock, but holds no lock on this path",
		a.fn, callee.Name())
}

// transferDefer records releases scheduled by a defer statement: either
// `defer mu.Unlock()` directly or releases inside `defer func() { ... }()`.
func (a *lockAnalysis) transferDefer(ds *ast.DeferStmt, s lockState) {
	deferredCalls(ds, func(call *ast.CallExpr) {
		op, isOp := a.mutexOp(call)
		if !isOp || a.takesCallersLock(op, call.Pos()) || op.acquire {
			return
		}
		a.fact(s, op).deferred = triYes
	})
}

func (a *lockAnalysis) applyAcquire(s lockState, op mutexOp, pos token.Pos) {
	f := a.fact(s, op)
	if a.report {
		if f.held == triYes {
			a.p.Reportf(pos, "acquires %s while already held on this path; sync mutexes are not reentrant", lockDisplay(op.key))
		} else if of := s[otherModeKey(op.key)]; of != nil && of.held == triYes {
			a.p.Reportf(pos, "acquires %s while %s is held on this path (RWMutex self-deadlock)", lockDisplay(op.key), lockDisplay(otherModeKey(op.key)))
		}
	}
	f.held = triYes
	if !f.pos.IsValid() {
		f.pos = pos
	}
}

func (a *lockAnalysis) applyRelease(s lockState, op mutexOp, pos token.Pos) {
	f := s[op.key]
	if f == nil {
		// Lock handoff: releasing a lock acquired by the caller. Accepted.
		a.fact(s, op).held = triNo
		return
	}
	if a.report && f.held == triNo {
		a.p.Reportf(pos, "releases %s but it was already released on this path (double unlock)", lockDisplay(op.key))
	}
	if a.report && f.held == triBot {
		if of := s[otherModeKey(op.key)]; of != nil && of.held == triYes {
			a.p.Reportf(pos, "releases %s but it is %s that is held on this path (mismatched lock mode)", lockDisplay(op.key), lockDisplay(otherModeKey(op.key)))
		}
	}
	f.held = triNo
}

// checkExit reports leaks at a return or falloff exit.
func (a *lockAnalysis) checkExit(pos token.Pos, s lockState) {
	keys := make([]string, 0, len(s))
	for k := range s {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		f := s[k]
		disp := lockDisplay(k)
		if f.held == triNo && f.deferred == triYes {
			a.p.Reportf(pos, "%s schedules a deferred release of %s but also releases it explicitly on this path (double unlock at return)", a.fn, disp)
		}
		where := ""
		if f.pos.IsValid() {
			where = fmt.Sprintf(" (acquired at line %d)", a.p.Fset.Position(f.pos).Line)
		}
		switch f.leak() {
		case leakDeferMaybe:
			a.p.Reportf(pos, "%s may return with %s held: its deferred release is scheduled on only some paths%s", a.fn, disp, where)
		case leakHeld:
			a.p.Reportf(pos, "%s returns with %s held%s; release it on this path or defer the release", a.fn, disp, where)
		case leakSomePaths:
			a.p.Reportf(pos, "%s may return with %s held: it is released on some paths but not this one%s", a.fn, disp, where)
		}
	}
}

// mutexOp classifies a call as a mutex acquisition or release.
func (a *lockAnalysis) mutexOp(call *ast.CallExpr) (mutexOp, bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return mutexOp{}, false
	}
	name := sel.Sel.Name
	if !lockAcquire[name] && !lockRelease[name] {
		return mutexOp{}, false
	}
	if !a.isMutex(sel.X) {
		return mutexOp{}, false
	}
	base := exprText(a.p.Fset, sel.X)
	mode := "|W"
	if name == "RLock" || name == "RUnlock" {
		mode = "|R"
	}
	return mutexOp{key: base + mode, base: base, method: name, acquire: lockAcquire[name], local: a.isLocal(sel.X)}, true
}

// isMutex reports whether the expression has type sync.Mutex/RWMutex,
// possibly through a pointer.
func (a *lockAnalysis) isMutex(e ast.Expr) bool {
	tv, ok := a.p.Info.Types[e]
	return ok && isSyncMutexType(tv.Type)
}

// isLocal reports whether the mutex is a variable declared inside the
// analyzed function body, or a field of one reached without a pointer.
func (a *lockAnalysis) isLocal(e ast.Expr) bool {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.SelectorExpr:
			tv, ok := a.p.Info.Types[x.X]
			if !ok {
				return false
			}
			if _, ptr := tv.Type.Underlying().(*types.Pointer); ptr {
				return false
			}
			e = x.X
		case *ast.Ident:
			obj := objOf(a.p.Info, x)
			return obj != nil && obj.Pos() >= a.body.Pos() && obj.Pos() < a.body.End()
		default:
			return false
		}
	}
}

// isSyncMutexType reports whether t (possibly through a pointer) is
// sync.Mutex or sync.RWMutex.
func isSyncMutexType(t types.Type) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync" &&
		(obj.Name() == "Mutex" || obj.Name() == "RWMutex")
}

func otherModeKey(key string) string {
	if strings.HasSuffix(key, "|R") {
		return strings.TrimSuffix(key, "|R") + "|W"
	}
	return strings.TrimSuffix(key, "|W") + "|R"
}

// lockDisplay renders a fact key for a diagnostic.
func lockDisplay(key string) string {
	if base, ok := strings.CutSuffix(key, "|R"); ok {
		return base + " (read lock)"
	}
	return strings.TrimSuffix(key, "|W")
}
