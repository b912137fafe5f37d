package analysis

// A generic forward fixpoint solver over CFGs. Analyzers describe their
// lattice through FlowProblem; the solver iterates transfer functions over
// a worklist until block in-states stabilize. May- and must-analyses both
// fit: the tri lattice below distinguishes "on every path" (triYes/triNo)
// from "on some paths" (triMaybe), and Join merges path facts pointwise.

import (
	"go/ast"
	"go/token"
)

// tri is a three-point lattice value plus bottom: triBot means "no path
// has said anything", triYes/triNo are must-facts, triMaybe is the top
// ("differs between paths").
type tri uint8

const (
	triBot tri = iota
	triNo
	triYes
	triMaybe
)

func (a tri) join(b tri) tri {
	switch {
	case a == b, b == triBot:
		return a
	case a == triBot:
		return b
	default:
		return triMaybe
	}
}

// FlowProblem defines a forward dataflow analysis with state S.
type FlowProblem[S any] interface {
	// EntryState is the state at function entry.
	EntryState() S
	// Clone deep-copies a state so Transfer may mutate freely.
	Clone(S) S
	// Transfer applies one block node's effect to the state (in place or
	// by returning a new state).
	Transfer(n ast.Node, s S) S
	// TransferEdge refines the state along a branch edge (e.g. kill facts
	// on the `err != nil` arm). Called with a private copy.
	TransferEdge(e Edge, s S) S
	// Join merges src into dst, reporting whether dst changed.
	Join(dst, src S) (S, bool)
}

// maxFixpointSteps bounds solver iterations as a safety net: the lattices
// used here are finite so the fixpoint terminates, but a non-monotone
// transfer bug would otherwise spin forever inside the linter.
const maxFixpointSteps = 1 << 14

// Solve runs the problem to fixpoint and returns the in-state of every
// block reachable from Entry. Unreachable blocks (code after return, dead
// goto landing pads) have no entry in the map. The boolean reports whether
// a fixpoint was reached: false means the step bound fired (a non-monotone
// transfer, or a pathologically large function) and the states are a
// partial under-approximation — callers must surface that rather than
// treat the function as proven.
func Solve[S any](g *CFG, p FlowProblem[S]) (map[*Block]S, bool) {
	in := make(map[*Block]S, len(g.Blocks))
	in[g.Entry] = p.EntryState()
	work := []*Block{g.Entry}
	queued := make(map[*Block]bool, len(g.Blocks))
	queued[g.Entry] = true

	for steps := 0; len(work) > 0; steps++ {
		if steps >= maxFixpointSteps {
			return in, false
		}
		b := work[0]
		work = work[1:]
		queued[b] = false

		s := p.Clone(in[b])
		for _, n := range b.Nodes {
			s = p.Transfer(n, s)
		}
		for _, e := range b.Succs {
			if e.To == g.Exit {
				continue
			}
			es := p.TransferEdge(e, p.Clone(s))
			cur, seen := in[e.To]
			if !seen {
				in[e.To] = es
			} else {
				merged, changed := p.Join(cur, es)
				in[e.To] = merged
				if !changed {
					continue
				}
			}
			if !queued[e.To] {
				queued[e.To] = true
				work = append(work, e.To)
			}
		}
	}
	return in, true
}

// joinTri merges another path's fact src into *dst and reports a change.
// An absent key means "untouched on this path", which operationally is
// "not held": joining it with a held fact yields Maybe, while two
// not-held paths stay not-held.
func joinTri(dst *tri, src tri) bool {
	a := *dst
	if a == triBot {
		a = triNo
	}
	if src == triBot {
		src = triNo
	}
	j := a.join(src)
	changed := j != *dst
	*dst = j
	return changed
}

// pathFact is what locks and pinbalance track per key on each path:
// whether the lock or pin is held, and whether its release is deferred.
// The zero value is the fact of a path that never touched the key.
type pathFact struct {
	held, deferred tri
}

func (f *pathFact) join(o pathFact) bool {
	h := joinTri(&f.held, o.held)
	d := joinTri(&f.deferred, o.deferred)
	return h || d
}

// leak classifies a fact at a normal function exit.
type leak uint8

const (
	noLeak         leak = iota // released, never taken, or a deferred release is due
	leakHeld                   // held on every path here, with no release scheduled
	leakSomePaths              // released on some paths but not this one
	leakDeferMaybe             // the deferred release is scheduled on only some paths
)

func (f *pathFact) leak() leak {
	switch {
	case f.held != triYes && f.held != triMaybe, f.deferred == triYes:
		return noLeak
	case f.deferred == triMaybe:
		return leakDeferMaybe
	case f.held == triYes:
		return leakHeld
	}
	return leakSomePaths
}

// fact is a flow state's per-key record: join merges another path's
// record into it, nil meaning the key is absent on that path.
type fact[F any] interface {
	*F
	join(*F) bool
}

// cloneFacts deep-copies a fact-map state.
func cloneFacts[K comparable, F any](s map[K]*F) map[K]*F {
	out := make(map[K]*F, len(s))
	for k, f := range s {
		c := *f
		out[k] = &c
	}
	return out
}

// joinFacts is the Join of a fact-map state: key by key, a key on one side
// only joined with its absence on the other.
func joinFacts[K comparable, F any, P fact[F]](dst, src map[K]*F) (map[K]*F, bool) {
	changed := false
	for k, sf := range src {
		if df, ok := dst[k]; ok {
			changed = P(df).join(sf) || changed
			continue
		}
		nf := *sf
		P(&nf).join(nil)
		dst[k] = &nf
		changed = true
	}
	for k, df := range dst {
		if _, ok := src[k]; !ok {
			changed = P(df).join(nil) || changed
		}
	}
	return dst, changed
}

// replayProblem is a flow problem that reports while it replays the
// solved states: replay switches its diagnostics on, and checkExit judges
// the state at one normal (non-panic) exit.
type replayProblem[S any] interface {
	FlowProblem[S]
	replay()
	checkExit(pos token.Pos, s S)
}

// runFlow is the solve-and-replay loop locks and pinbalance share: it
// solves prob over body's CFG, reports a solver that stopped short of its
// fixpoint, then replays every reachable block from its in-state with
// diagnostics on and hands the state at each normal exit to checkExit.
func runFlow[S any](p *Pass, fn, facts string, body *ast.BlockStmt, prob replayProblem[S]) {
	g := BuildCFG(body)
	in, converged := Solve(g, prob)
	if !converged {
		p.Reportf(body.Pos(), "%s: dataflow solver hit its step bound before reaching a fixpoint; %s facts for this function are incomplete", fn, facts)
	}
	prob.replay()
	for _, b := range g.Reachable() {
		s, ok := in[b]
		if !ok {
			continue
		}
		s = prob.Clone(s)
		for _, n := range b.Nodes {
			s = prob.Transfer(n, s)
		}
		for _, e := range b.Succs {
			if e.To != g.Exit || e.Kind == EdgePanic {
				continue
			}
			pos := body.Rbrace
			if len(b.Nodes) > 0 {
				pos = b.Nodes[len(b.Nodes)-1].Pos()
			}
			prob.checkExit(pos, s)
		}
	}
}

// deferredCalls visits the calls a defer statement schedules: the
// deferred call itself, or every call inside a deferred closure.
func deferredCalls(ds *ast.DeferStmt, visit func(*ast.CallExpr)) {
	lit, ok := ds.Call.Fun.(*ast.FuncLit)
	if !ok {
		visit(ds.Call)
		return
	}
	inspectNoFuncLit(lit, func(m ast.Node) bool {
		if call, ok := m.(*ast.CallExpr); ok {
			visit(call)
		}
		return true
	})
}
