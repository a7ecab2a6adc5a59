// Package cfg builds per-function control-flow graphs from go/ast, with no
// dependencies beyond the standard library. It is the substrate of twlint's
// flow-sensitive analyzers: a lock released on all exits and a goroutine
// joined on all exits are properties of *paths*, and those cannot be checked
// by pattern-matching syntax alone.
//
// The graph is deliberately simple: a list of basic blocks holding the
// function's simple statements and branch-condition leaves in execution
// order, connected by successor edges. Control constructs are lowered the
// usual way:
//
//   - if/else, for, range, switch, type switch and select become head,
//     body and done blocks;
//   - short-circuit conditions are decomposed, so `if a && b` produces a
//     block evaluating `a` and a separate block evaluating `b` — a branch on
//     the second operand really is a distinct program point;
//   - for a block ending in a condition leaf, Succs[0] is the edge taken
//     when the leaf evaluates true and Succs[1] the false edge;
//   - return edges to the synthetic Exit block; panic, os.Exit, log.Fatal*
//     and runtime.Goexit terminate their path without reaching Exit, so
//     "on every path to Exit" means "on every non-aborting path";
//   - defer statements appear as ordinary nodes at their registration
//     point: a path that passes the registration runs the deferred call at
//     every subsequent exit, which is exactly how the analyzers treat them.
//
// goto is not modeled: its statement ends the current path conservatively.
// The module has no goto in non-generated code, and twlint's analyzers only
// ever use the graph to prove "must happen before exit" facts, for which
// dropping a path is the safe direction.
package cfg

import (
	"go/ast"
	"go/printer"
	"go/token"
	"strings"
)

// Block is one basic block: a maximal straight-line run of simple
// statements, ended by a branch, a return, or a fall-through to the next
// block.
type Block struct {
	// Index is the block's position in Graph.Blocks.
	Index int
	// Kind names the construct that created the block (entry, exit, if.then,
	// for.head, cond.and, ...) for golden tests and debugging.
	Kind string
	// Nodes holds the block's statements and condition leaves in execution
	// order. Compound statements never appear; their pieces are distributed
	// over the blocks they create. A trailing ast.Expr is the block's branch
	// condition.
	Nodes []ast.Node
	// Succs are the successor edges. For a block ending in a condition leaf
	// there are exactly two: Succs[0] is taken when the condition is true,
	// Succs[1] when it is false.
	Succs []*Block
	// Preds are the predecessor edges (reverse of Succs).
	Preds []*Block
}

// Graph is the control-flow graph of one function body.
type Graph struct {
	Fset *token.FileSet
	// Blocks lists every block; Blocks[0] is Entry, Blocks[1] is Exit.
	Blocks []*Block
	Entry  *Block
	Exit   *Block
}

// Build constructs the graph of a function body. fn is a *ast.FuncDecl or
// *ast.FuncLit; a nil or bodyless function yields a graph whose entry falls
// straight through to exit.
func Build(fset *token.FileSet, fn ast.Node) *Graph {
	g := &Graph{Fset: fset}
	b := &builder{g: g}
	g.Entry = b.newBlock("entry")
	g.Exit = b.newBlock("exit")
	b.cur = g.Entry

	var body *ast.BlockStmt
	switch f := fn.(type) {
	case *ast.FuncDecl:
		body = f.Body
	case *ast.FuncLit:
		body = f.Body
	}
	if body != nil {
		b.stmtList(body.List)
	}
	// Falling off the end of the body is an implicit return.
	if b.cur != nil {
		b.edge(b.cur, g.Exit)
	}
	return g
}

// scope is one enclosing breakable/continuable construct.
type scope struct {
	label string // enclosing statement label, "" if none
	brk   *Block // break target
	cont  *Block // continue target; nil for switch/select scopes
}

type builder struct {
	g      *Graph
	cur    *Block // nil while the current path is unreachable
	scopes []scope
	label  string // pending label for the next loop/switch statement
}

func (b *builder) newBlock(kind string) *Block {
	blk := &Block{Index: len(b.g.Blocks), Kind: kind}
	b.g.Blocks = append(b.g.Blocks, blk)
	return blk
}

func (b *builder) edge(from, to *Block) {
	from.Succs = append(from.Succs, to)
	to.Preds = append(to.Preds, from)
}

// add appends a simple statement to the current block.
func (b *builder) add(n ast.Node) {
	if b.cur != nil {
		b.cur.Nodes = append(b.cur.Nodes, n)
	}
}

func (b *builder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

// takeLabel consumes the pending statement label.
func (b *builder) takeLabel() string {
	l := b.label
	b.label = ""
	return l
}

func (b *builder) stmt(s ast.Stmt) {
	if b.cur == nil && !isLabeled(s) {
		// Unreachable code (after return/break/...): skip. A labeled
		// statement can still be reached by goto, which we don't model, so
		// it conservatively keeps its sub-statements out of the graph too.
		return
	}
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmtList(s.List)
	case *ast.LabeledStmt:
		b.label = s.Label.Name
		b.stmt(s.Stmt)
	case *ast.IfStmt:
		b.ifStmt(s)
	case *ast.ForStmt:
		b.forStmt(s)
	case *ast.RangeStmt:
		b.rangeStmt(s)
	case *ast.SwitchStmt:
		b.switchStmt(s)
	case *ast.TypeSwitchStmt:
		b.typeSwitchStmt(s)
	case *ast.SelectStmt:
		b.selectStmt(s)
	case *ast.ReturnStmt:
		b.add(s)
		b.edge(b.cur, b.g.Exit)
		b.cur = nil
	case *ast.BranchStmt:
		b.branchStmt(s)
	case *ast.ExprStmt:
		b.add(s)
		if terminatesPath(s.X) {
			b.cur = nil
		}
	default:
		// Assign, Decl, IncDec, Send, Defer, Go, Empty: straight-line.
		b.add(s)
	}
}

// isLabeled reports whether s is a labeled statement.
func isLabeled(s ast.Stmt) bool {
	_, ok := s.(*ast.LabeledStmt)
	return ok
}

// cond lowers a boolean expression evaluated in the current block, branching
// to t when it is true and to f when it is false. Short-circuit operators
// split into separate blocks; everything else becomes a condition leaf.
func (b *builder) cond(e ast.Expr, t, f *Block) {
	if b.cur == nil {
		return
	}
	switch x := ast.Unparen(e).(type) {
	case *ast.BinaryExpr:
		switch x.Op {
		case token.LAND:
			rhs := b.newBlock("cond.and")
			b.cond(x.X, rhs, f)
			b.cur = rhs
			b.cond(x.Y, t, f)
			return
		case token.LOR:
			rhs := b.newBlock("cond.or")
			b.cond(x.X, t, rhs)
			b.cur = rhs
			b.cond(x.Y, t, f)
			return
		}
	case *ast.UnaryExpr:
		if x.Op == token.NOT {
			b.cond(x.X, f, t)
			return
		}
	}
	b.cur.Nodes = append(b.cur.Nodes, e)
	b.edge(b.cur, t) // Succs[0]: condition true
	b.edge(b.cur, f) // Succs[1]: condition false
	b.cur = nil
}

func (b *builder) ifStmt(s *ast.IfStmt) {
	b.takeLabel() // labels on if are only goto targets; not modeled
	if s.Init != nil {
		b.add(s.Init)
	}
	then := b.newBlock("if.then")
	done := b.newBlock("if.done")
	els := done
	if s.Else != nil {
		els = b.newBlock("if.else")
	}
	b.cond(s.Cond, then, els)

	b.cur = then
	b.stmtList(s.Body.List)
	if b.cur != nil {
		b.edge(b.cur, done)
	}
	if s.Else != nil {
		b.cur = els
		b.stmt(s.Else)
		if b.cur != nil {
			b.edge(b.cur, done)
		}
	}
	b.cur = done
}

func (b *builder) forStmt(s *ast.ForStmt) {
	label := b.takeLabel()
	if s.Init != nil {
		b.add(s.Init)
	}
	head := b.newBlock("for.head")
	body := b.newBlock("for.body")
	done := b.newBlock("for.done")
	post := head
	if s.Post != nil {
		post = b.newBlock("for.post")
	}
	b.edge(b.cur, head)
	b.cur = head
	if s.Cond != nil {
		b.cond(s.Cond, body, done)
	} else {
		b.edge(b.cur, body)
		b.cur = nil
	}

	b.scopes = append(b.scopes, scope{label: label, brk: done, cont: post})
	b.cur = body
	b.stmtList(s.Body.List)
	if b.cur != nil {
		b.edge(b.cur, post)
	}
	b.scopes = b.scopes[:len(b.scopes)-1]

	if s.Post != nil {
		b.cur = post
		b.add(s.Post)
		b.edge(b.cur, head)
	}
	b.cur = done
}

func (b *builder) rangeStmt(s *ast.RangeStmt) {
	label := b.takeLabel()
	head := b.newBlock("range.head")
	body := b.newBlock("range.body")
	done := b.newBlock("range.done")
	b.edge(b.cur, head)
	// The RangeStmt node itself is the head's node: analyzers read the
	// key/value assignment and the ranged operand from it.
	head.Nodes = append(head.Nodes, s)
	b.edge(head, body)
	b.edge(head, done)

	b.scopes = append(b.scopes, scope{label: label, brk: done, cont: head})
	b.cur = body
	b.stmtList(s.Body.List)
	if b.cur != nil {
		b.edge(b.cur, head)
	}
	b.scopes = b.scopes[:len(b.scopes)-1]
	b.cur = done
}

func (b *builder) switchStmt(s *ast.SwitchStmt) {
	label := b.takeLabel()
	if s.Init != nil {
		b.add(s.Init)
	}
	if s.Tag != nil {
		b.add(s.Tag)
	}
	head := b.cur
	done := b.newBlock("switch.done")
	b.caseClauses(s.Body.List, head, done, label, "switch.case")
	b.cur = done
}

func (b *builder) typeSwitchStmt(s *ast.TypeSwitchStmt) {
	label := b.takeLabel()
	if s.Init != nil {
		b.add(s.Init)
	}
	b.add(s.Assign)
	head := b.cur
	done := b.newBlock("switch.done")
	b.caseClauses(s.Body.List, head, done, label, "typeswitch.case")
	b.cur = done
}

// caseClauses lowers the case list of a switch or type switch: one body
// block per clause, all reached from head, with fallthrough edges between
// consecutive bodies and an implicit edge head -> done when no default
// clause exists.
func (b *builder) caseClauses(clauses []ast.Stmt, head, done *Block, label, kind string) {
	type clauseBlock struct {
		clause *ast.CaseClause
		body   *Block
	}
	var cbs []clauseBlock
	hasDefault := false
	for _, c := range clauses {
		cc, ok := c.(*ast.CaseClause)
		if !ok {
			continue
		}
		body := b.newBlock(kind)
		if cc.List == nil {
			hasDefault = true
		}
		// Case guard expressions are evaluated while deciding the branch.
		for _, e := range cc.List {
			head.Nodes = append(head.Nodes, e)
		}
		b.edge(head, body)
		cbs = append(cbs, clauseBlock{cc, body})
	}
	if !hasDefault {
		b.edge(head, done)
	}
	b.scopes = append(b.scopes, scope{label: label, brk: done})
	for i, cb := range cbs {
		b.cur = cb.body
		b.stmtList(cb.clause.Body)
		if b.cur != nil {
			// An explicit fallthrough was already handled by branchStmt;
			// reaching here means the clause falls out of the switch.
			if endsInFallthrough(cb.clause.Body) && i+1 < len(cbs) {
				b.edge(b.cur, cbs[i+1].body)
			} else {
				b.edge(b.cur, done)
			}
		}
	}
	b.scopes = b.scopes[:len(b.scopes)-1]
}

// endsInFallthrough reports whether a case body's last statement is
// fallthrough.
func endsInFallthrough(body []ast.Stmt) bool {
	if len(body) == 0 {
		return false
	}
	br, ok := body[len(body)-1].(*ast.BranchStmt)
	return ok && br.Tok == token.FALLTHROUGH
}

func (b *builder) selectStmt(s *ast.SelectStmt) {
	label := b.takeLabel()
	head := b.cur
	done := b.newBlock("select.done")
	b.scopes = append(b.scopes, scope{label: label, brk: done})
	for _, c := range s.Body.List {
		cc, ok := c.(*ast.CommClause)
		if !ok {
			continue
		}
		body := b.newBlock("select.comm")
		if cc.Comm != nil {
			body.Nodes = append(body.Nodes, cc.Comm)
		}
		b.edge(head, body)
		b.cur = body
		b.stmtList(cc.Body)
		if b.cur != nil {
			b.edge(b.cur, done)
		}
	}
	b.scopes = b.scopes[:len(b.scopes)-1]
	// A select with no default blocks until some case is ready, so there is
	// no head -> done edge; every path goes through a comm clause.
	b.cur = done
}

func (b *builder) branchStmt(s *ast.BranchStmt) {
	switch s.Tok {
	case token.FALLTHROUGH:
		// Handled structurally by caseClauses; the statement itself is a
		// no-op node.
		b.add(s)
	case token.GOTO:
		// Not modeled: end the path conservatively (see package comment).
		b.add(s)
		b.cur = nil
	case token.BREAK:
		b.add(s)
		for i := len(b.scopes) - 1; i >= 0; i-- {
			if s.Label == nil || b.scopes[i].label == s.Label.Name {
				b.edge(b.cur, b.scopes[i].brk)
				break
			}
		}
		b.cur = nil
	case token.CONTINUE:
		b.add(s)
		for i := len(b.scopes) - 1; i >= 0; i-- {
			if b.scopes[i].cont == nil {
				continue // switch/select scopes are not continue targets
			}
			if s.Label == nil || b.scopes[i].label == s.Label.Name {
				b.edge(b.cur, b.scopes[i].cont)
				break
			}
		}
		b.cur = nil
	}
}

// terminatesPath reports whether an expression statement aborts control flow:
// panic(...), os.Exit(...), log.Fatal*(...), runtime.Goexit().
func terminatesPath(e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name == "panic"
	case *ast.SelectorExpr:
		pkg, ok := fun.X.(*ast.Ident)
		if !ok {
			return false
		}
		switch {
		case pkg.Name == "os" && fun.Sel.Name == "Exit":
			return true
		case pkg.Name == "log" && strings.HasPrefix(fun.Sel.Name, "Fatal"):
			return true
		case pkg.Name == "runtime" && fun.Sel.Name == "Goexit":
			return true
		}
	}
	return false
}

// String renders the graph in the compact stable form the golden tests pin:
// one line per block, `b<i>(<kind>) [node; node] -> b<j> b<k>`. Blocks with
// no nodes, predecessors or successors (created but never wired) are
// skipped.
func (g *Graph) String() string {
	var sb strings.Builder
	for _, blk := range g.Blocks {
		if len(blk.Nodes) == 0 && len(blk.Succs) == 0 && len(blk.Preds) == 0 && blk.Kind != "entry" && blk.Kind != "exit" {
			continue
		}
		sb.WriteString("b")
		sb.WriteString(itoa(blk.Index))
		sb.WriteString("(")
		sb.WriteString(blk.Kind)
		sb.WriteString(")")
		if len(blk.Nodes) > 0 {
			sb.WriteString(" [")
			for i, n := range blk.Nodes {
				if i > 0 {
					sb.WriteString("; ")
				}
				sb.WriteString(g.render(n))
			}
			sb.WriteString("]")
		}
		if len(blk.Succs) > 0 {
			sb.WriteString(" ->")
			for _, s := range blk.Succs {
				sb.WriteString(" b")
				sb.WriteString(itoa(s.Index))
			}
		}
		sb.WriteString("\n")
	}
	return sb.String()
}

// InspectNode walks one block node the way analyzers should: like
// ast.Inspect, except that a *ast.RangeStmt contributes only its iteration
// header (key, value, and the ranged operand). The range body lives in
// other blocks of the graph — descending into it from the head node would
// make every statement in the loop visible twice, once at the wrong
// program point.
// The statement itself is still visited (analyzers match on it — e.g. a
// range over a channel is a goroutine join), only the body is pruned.
func InspectNode(n ast.Node, f func(ast.Node) bool) {
	if r, ok := n.(*ast.RangeStmt); ok {
		if !f(r) {
			return
		}
		for _, e := range []ast.Expr{r.Key, r.Value, r.X} {
			if e != nil {
				ast.Inspect(e, f)
			}
		}
		return
	}
	ast.Inspect(n, f)
}

// render prints one node as a single line of source.
func (g *Graph) render(n ast.Node) string {
	if r, ok := n.(*ast.RangeStmt); ok {
		// Printing the whole statement would include the body, which lives
		// in other blocks; show only the iteration header.
		head := "range " + g.render(r.X)
		if r.Key != nil {
			head = g.render(r.Key)
			if r.Value != nil {
				head += ", " + g.render(r.Value)
			}
			head += " " + r.Tok.String() + " range " + g.render(r.X)
		}
		return head
	}
	var buf strings.Builder
	if err := printer.Fprint(&buf, g.Fset, n); err != nil {
		return "<?>"
	}
	return strings.Join(strings.Fields(buf.String()), " ")
}

// itoa is strconv.Itoa without the import, for tiny non-negative ints.
func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var d [8]byte
	n := len(d)
	for i > 0 {
		n--
		d[n] = byte('0' + i%10)
		i /= 10
	}
	return string(d[n:])
}
