package analysis

// Control-flow graphs over go/ast function bodies, in the spirit of
// golang.org/x/tools/go/cfg but standard-library-only. The graph is the
// substrate for the flow-sensitive passes (locks, pinbalance,
// walorder): basic blocks of statements and evaluated expressions,
// connected by edges that remember the branch condition they encode so a
// dataflow problem can refine facts along `err != nil`-style edges.
//
// Coverage: if/else chains, for (all clause shapes), range, switch,
// type-switch (including fallthrough), select (with and without default),
// goto, labeled break/continue, and panic/return exits. defer statements
// stay in their block as ordinary nodes — Go runs deferred calls at
// function exit, and the dataflow layer models that by carrying
// "scheduled at exit" facts rather than by wiring extra edges.
//
// Function literals are opaque: a closure's body executes at call time,
// not where it is written, so it is excluded from the enclosing graph and
// analyzed as a function of its own (see forEachFunc).

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/printer"
	"go/token"
	"strings"
)

// EdgeKind says how control reaches an edge's target.
type EdgeKind uint8

const (
	// EdgeNormal is unconditional fallthrough between blocks.
	EdgeNormal EdgeKind = iota
	// EdgeCondTrue is taken when the edge's Cond evaluates true.
	EdgeCondTrue
	// EdgeCondFalse is taken when the edge's Cond evaluates false.
	EdgeCondFalse
	// EdgeReturn leads to Exit from a return statement.
	EdgeReturn
	// EdgePanic leads to Exit from a panic(...) call. Deferred calls still
	// run on this path; non-deferred cleanup does not.
	EdgePanic
	// EdgeFalloff leads to Exit by falling off the end of the body.
	EdgeFalloff
)

// Edge is one control-flow transition.
type Edge struct {
	To   *Block
	Kind EdgeKind
	Cond ast.Expr // branch condition for EdgeCondTrue/EdgeCondFalse, else nil
}

// Block is a basic block: nodes that execute in order with no internal
// control transfer. Nodes are statements plus the expressions a compound
// statement evaluates before branching (an if condition, a switch tag).
type Block struct {
	Index int
	Nodes []ast.Node
	Succs []Edge
}

// CFG is the control-flow graph of one function body.
type CFG struct {
	Blocks []*Block
	Entry  *Block
	Exit   *Block // synthetic; holds no nodes
}

// BuildCFG constructs the graph for a function body.
func BuildCFG(body *ast.BlockStmt) *CFG {
	exit := &Block{Index: -1}
	g := &CFG{Exit: exit}
	b := &cfgBuilder{g: g, labels: make(map[string]*labelInfo)}
	g.Entry = b.newBlock()
	b.cur = g.Entry
	b.stmtList(body.List)
	b.edge(b.cur, exit, EdgeFalloff, nil)
	return g
}

type labelInfo struct {
	start *Block // goto target (pre-created for forward gotos)
	brk   *Block // labeled break target, set when the labeled stmt builds
	cont  *Block // labeled continue target
}

type cfgBuilder struct {
	g      *CFG
	cur    *Block
	labels map[string]*labelInfo

	brk, cont   *Block     // innermost unlabeled break/continue targets
	fallthru    *Block     // next case body, for fallthrough
	attachLabel *labelInfo // label awaiting its loop/switch, for break L
}

func (b *cfgBuilder) newBlock() *Block {
	blk := &Block{Index: len(b.g.Blocks)}
	b.g.Blocks = append(b.g.Blocks, blk)
	return blk
}

func (b *cfgBuilder) edge(from, to *Block, kind EdgeKind, cond ast.Expr) {
	from.Succs = append(from.Succs, Edge{To: to, Kind: kind, Cond: cond})
}

// add appends an executed node to the current block.
func (b *cfgBuilder) add(n ast.Node) {
	b.cur.Nodes = append(b.cur.Nodes, n)
}

// terminate ends the current block with an edge to Exit and continues in a
// fresh unreachable block (anything syntactically after a terminator).
func (b *cfgBuilder) terminate(kind EdgeKind) {
	b.edge(b.cur, b.g.Exit, kind, nil)
	b.cur = b.newBlock()
}

func (b *cfgBuilder) label(name string) *labelInfo {
	li, ok := b.labels[name]
	if !ok {
		li = &labelInfo{start: b.newBlock()}
		b.labels[name] = li
	}
	return li
}

// takeLabel consumes a pending label so a loop or switch can register its
// break/continue targets on it.
func (b *cfgBuilder) takeLabel() *labelInfo {
	li := b.attachLabel
	b.attachLabel = nil
	return li
}

func (b *cfgBuilder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

func (b *cfgBuilder) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmtList(s.List)

	case *ast.LabeledStmt:
		li := b.label(s.Label.Name)
		b.edge(b.cur, li.start, EdgeNormal, nil)
		b.cur = li.start
		b.attachLabel = li
		b.stmt(s.Stmt)
		b.attachLabel = nil

	case *ast.IfStmt:
		b.takeLabel()
		if s.Init != nil {
			b.stmt(s.Init)
		}
		b.add(s.Cond)
		cond := b.cur
		join := b.newBlock()
		then := b.newBlock()
		b.edge(cond, then, EdgeCondTrue, s.Cond)
		b.cur = then
		b.stmt(s.Body)
		b.edge(b.cur, join, EdgeNormal, nil)
		if s.Else != nil {
			els := b.newBlock()
			b.edge(cond, els, EdgeCondFalse, s.Cond)
			b.cur = els
			b.stmt(s.Else)
			b.edge(b.cur, join, EdgeNormal, nil)
		} else {
			b.edge(cond, join, EdgeCondFalse, s.Cond)
		}
		b.cur = join

	case *ast.ForStmt:
		li := b.takeLabel()
		if s.Init != nil {
			b.stmt(s.Init)
		}
		head := b.newBlock()
		body := b.newBlock()
		join := b.newBlock()
		b.edge(b.cur, head, EdgeNormal, nil)
		if s.Cond != nil {
			head.Nodes = append(head.Nodes, s.Cond)
			b.edge(head, body, EdgeCondTrue, s.Cond)
			b.edge(head, join, EdgeCondFalse, s.Cond)
		} else {
			b.edge(head, body, EdgeNormal, nil)
		}
		cont := head
		var post *Block
		if s.Post != nil {
			post = b.newBlock()
			cont = post
		}
		if li != nil {
			li.brk, li.cont = join, cont
		}
		savedBrk, savedCont := b.brk, b.cont
		b.brk, b.cont = join, cont
		b.cur = body
		b.stmt(s.Body)
		if post != nil {
			b.edge(b.cur, post, EdgeNormal, nil)
			b.cur = post
			b.stmt(s.Post)
		}
		b.edge(b.cur, head, EdgeNormal, nil)
		b.brk, b.cont = savedBrk, savedCont
		b.cur = join

	case *ast.RangeStmt:
		li := b.takeLabel()
		b.add(s.X)
		head := b.newBlock()
		body := b.newBlock()
		join := b.newBlock()
		b.edge(b.cur, head, EdgeNormal, nil)
		// The per-iteration key/value assignment lives in the head.
		head.Nodes = append(head.Nodes, s)
		b.edge(head, body, EdgeNormal, nil)
		b.edge(head, join, EdgeNormal, nil)
		if li != nil {
			li.brk, li.cont = join, head
		}
		savedBrk, savedCont := b.brk, b.cont
		b.brk, b.cont = join, head
		b.cur = body
		b.stmt(s.Body)
		b.edge(b.cur, head, EdgeNormal, nil)
		b.brk, b.cont = savedBrk, savedCont
		b.cur = join

	case *ast.SwitchStmt:
		b.switchLike(s.Init, s.Tag, nil, s.Body)

	case *ast.TypeSwitchStmt:
		b.switchLike(s.Init, nil, s.Assign, s.Body)

	case *ast.SelectStmt:
		li := b.takeLabel()
		head := b.cur
		join := b.newBlock()
		if li != nil {
			li.brk = join
		}
		savedBrk := b.brk
		b.brk = join
		savedFall := b.fallthru
		b.fallthru = nil
		for _, c := range s.Body.List {
			cc := c.(*ast.CommClause)
			body := b.newBlock()
			b.edge(head, body, EdgeNormal, nil)
			b.cur = body
			if cc.Comm != nil {
				b.stmt(cc.Comm)
			}
			b.stmtList(cc.Body)
			b.edge(b.cur, join, EdgeNormal, nil)
		}
		b.brk = savedBrk
		b.fallthru = savedFall
		if len(s.Body.List) == 0 {
			// select{} blocks forever: nothing reaches the join.
			b.cur = b.newBlock()
			return
		}
		b.cur = join

	case *ast.ReturnStmt:
		b.add(s)
		b.terminate(EdgeReturn)

	case *ast.BranchStmt:
		switch s.Tok {
		case token.BREAK:
			target := b.brk
			if s.Label != nil {
				target = b.label(s.Label.Name).brk
			}
			b.jump(target)
		case token.CONTINUE:
			target := b.cont
			if s.Label != nil {
				target = b.label(s.Label.Name).cont
			}
			b.jump(target)
		case token.GOTO:
			b.jump(b.label(s.Label.Name).start)
		case token.FALLTHROUGH:
			b.jump(b.fallthru)
		}

	case *ast.ExprStmt:
		b.add(s)
		if call, ok := s.X.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
				b.terminate(EdgePanic)
			}
		}

	case *ast.DeclStmt, *ast.AssignStmt, *ast.IncDecStmt, *ast.SendStmt,
		*ast.DeferStmt, *ast.GoStmt:
		b.add(s)

	case *ast.EmptyStmt:
		// nothing

	default:
		if s != nil {
			b.add(s)
		}
	}
}

// jump ends the current block with an unconditional edge (break, continue,
// goto, fallthrough) and continues in a fresh unreachable block.
func (b *cfgBuilder) jump(target *Block) {
	if target == nil {
		// break/fallthrough outside any enclosing construct: only possible
		// in code that does not compile; drop the edge.
		b.cur = b.newBlock()
		return
	}
	b.edge(b.cur, target, EdgeNormal, nil)
	b.cur = b.newBlock()
}

// switchLike builds expression and type switches. tag is the evaluated tag
// expression (expression switch), assign the `x := y.(type)` statement
// (type switch); either may be nil.
func (b *cfgBuilder) switchLike(init ast.Stmt, tag ast.Expr, assign ast.Stmt, body *ast.BlockStmt) {
	li := b.takeLabel()
	if init != nil {
		b.stmt(init)
	}
	if tag != nil {
		b.add(tag)
	}
	if assign != nil {
		b.add(assign)
	}
	head := b.cur
	join := b.newBlock()
	if li != nil {
		li.brk = join
	}
	savedBrk := b.brk
	b.brk = join

	clauses := body.List
	bodies := make([]*Block, len(clauses))
	hasDefault := false
	for i, c := range clauses {
		bodies[i] = b.newBlock()
		if len(c.(*ast.CaseClause).List) == 0 {
			hasDefault = true
		}
	}
	for i, c := range clauses {
		cc := c.(*ast.CaseClause)
		b.edge(head, bodies[i], EdgeNormal, nil)
		b.cur = bodies[i]
		for _, e := range cc.List {
			b.add(e)
		}
		savedFall := b.fallthru
		if i+1 < len(clauses) {
			b.fallthru = bodies[i+1]
		} else {
			b.fallthru = nil
		}
		b.stmtList(cc.Body)
		b.fallthru = savedFall
		b.edge(b.cur, join, EdgeNormal, nil)
	}
	if !hasDefault {
		b.edge(head, join, EdgeNormal, nil)
	}
	b.brk = savedBrk
	b.cur = join
}

// Reachable returns the blocks reachable from Entry, in index order.
func (g *CFG) Reachable() []*Block {
	seen := make([]bool, len(g.Blocks))
	var walk func(b *Block)
	walk = func(b *Block) {
		if b == g.Exit || seen[b.Index] {
			return
		}
		seen[b.Index] = true
		for _, e := range b.Succs {
			walk(e.To)
		}
	}
	walk(g.Entry)
	var out []*Block
	for _, b := range g.Blocks {
		if seen[b.Index] {
			out = append(out, b)
		}
	}
	return out
}

// debugString renders the reachable graph for tests: one line per block
// with its node summaries and successor list.
func (g *CFG) debugString(fset *token.FileSet) string {
	var sb strings.Builder
	for _, blk := range g.Reachable() {
		fmt.Fprintf(&sb, "b%d:", blk.Index)
		for _, n := range blk.Nodes {
			fmt.Fprintf(&sb, " [%s]", summarizeNode(fset, n))
		}
		fmt.Fprintf(&sb, " ->")
		for _, e := range blk.Succs {
			name := fmt.Sprintf("b%d", e.To.Index)
			if e.To == g.Exit {
				name = "exit"
			}
			switch e.Kind {
			case EdgeCondTrue:
				fmt.Fprintf(&sb, " %s(T)", name)
			case EdgeCondFalse:
				fmt.Fprintf(&sb, " %s(F)", name)
			case EdgeReturn:
				fmt.Fprintf(&sb, " %s(ret)", name)
			case EdgePanic:
				fmt.Fprintf(&sb, " %s(panic)", name)
			case EdgeFalloff:
				fmt.Fprintf(&sb, " %s(end)", name)
			default:
				fmt.Fprintf(&sb, " %s", name)
			}
		}
		sb.WriteString("\n")
	}
	return sb.String()
}

// summarizeNode renders a node as a single collapsed line, truncated.
func summarizeNode(fset *token.FileSet, n ast.Node) string {
	if r, ok := n.(*ast.RangeStmt); ok {
		// Only the per-iteration assignment belongs to the head block; the
		// body is graphed separately.
		return "range " + exprText(fset, r.X)
	}
	var buf bytes.Buffer
	if err := printer.Fprint(&buf, fset, n); err != nil {
		return fmt.Sprintf("<%T>", n)
	}
	s := strings.Join(strings.Fields(buf.String()), " ")
	if len(s) > 40 {
		s = s[:40] + "…"
	}
	return s
}

// exprText renders an expression as compact source text, for use as a
// dataflow fact key ("t.mu", "cur.Branches[bi].Child").
func exprText(fset *token.FileSet, e ast.Expr) string {
	var buf bytes.Buffer
	if err := printer.Fprint(&buf, fset, e); err != nil {
		return fmt.Sprintf("<expr@%v>", e.Pos())
	}
	return strings.Join(strings.Fields(buf.String()), "")
}

// inspectNoFuncLit walks n in source order like ast.Inspect but does not
// descend into function literals: a closure body runs at call time, so its
// operations do not belong to the enclosing function's flow.
func inspectNoFuncLit(n ast.Node, f func(ast.Node) bool) {
	ast.Inspect(n, func(m ast.Node) bool {
		if _, ok := m.(*ast.FuncLit); ok && m != n {
			return false
		}
		return f(m)
	})
}

// rangeHeadAssign synthesizes the assignment a range head implies: for
// `for k, v := range xs` the per-iteration `k, v := <elem>`. Only the Lhs
// is materialized — the passes use it to observe overwrites of tracked
// variables (a pin or error variable reassigned by `for _, v = range xs`).
// Returns nil when the head assigns nothing (`for range xs`).
func rangeHeadAssign(r *ast.RangeStmt) *ast.AssignStmt {
	var lhs []ast.Expr
	if r.Key != nil {
		lhs = append(lhs, r.Key)
	}
	if r.Value != nil {
		lhs = append(lhs, r.Value)
	}
	if len(lhs) == 0 {
		return nil
	}
	return &ast.AssignStmt{Lhs: lhs, TokPos: r.TokPos, Tok: r.Tok}
}

// inspectCFGNode walks the parts of one CFG block node that execute at
// that program point. It differs from inspectNoFuncLit on a range head:
// the *ast.RangeStmt appears as the loop-head node for its per-iteration
// assignment, but its body belongs to other blocks and its X was already
// evaluated in the predecessor block. Only the implied key/value
// assignment is visited, presented as the AssignStmt it is so transfer
// functions observe overwrites of tracked variables.
func inspectCFGNode(n ast.Node, f func(ast.Node) bool) {
	if r, ok := n.(*ast.RangeStmt); ok {
		if as := rangeHeadAssign(r); as != nil {
			inspectNoFuncLit(as, f)
		}
		return
	}
	inspectNoFuncLit(n, f)
}

// forEachFunc visits every function body in the files: declared functions
// and methods, plus every function literal (each analyzed as its own
// function). name is the declared name, or "func literal" with the
// enclosing declaration's name when nested.
func forEachFunc(files []*ast.File, visit func(name string, decl *ast.FuncDecl, body *ast.BlockStmt)) {
	for _, f := range files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			visit(fd.Name.Name, fd, fd.Body)
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if lit, ok := n.(*ast.FuncLit); ok {
					visit(fd.Name.Name+" func literal", fd, lit.Body)
				}
				return true
			})
		}
	}
}
