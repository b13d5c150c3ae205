package analysis

import (
	"go/ast"
)

// This file builds per-function control-flow graphs from the AST — the
// substrate the fbuflife dataflow engine (fbuflife.go) runs on. The
// granularity is the basic block: a maximal run of straight-line
// statements. Compound statements are decomposed — an `if` contributes
// its init statement and condition to the current block and branches to
// then/else blocks; loops get head/body/post blocks with back edges —
// so a forward dataflow analysis sees exactly the orderings that can
// happen at run time, including early returns, break/continue/goto, and
// loop re-entry, which a syntactic "may-precede" order over statements
// (util.go) cannot see.

// CFGBlock is one basic block.
type CFGBlock struct {
	Index int
	// Nodes are executed in order: simple statements appended whole,
	// plus bare condition/tag expressions of enclosing control
	// statements. RangeStmt nodes stand for the per-iteration variable
	// binding only (their Body is in successor blocks).
	Nodes []ast.Node
	// Cond, when non-nil, is a boolean expression the block branches on:
	// Succs[0] is the true edge and Succs[1] the false edge. When Cond is
	// nil every successor is possible (join points, range heads, select).
	Cond  ast.Expr
	Succs []*CFGBlock
}

// CFG is one function body's control-flow graph.
type CFG struct {
	Entry  *CFGBlock
	Exit   *CFGBlock
	Blocks []*CFGBlock
	// Defers collects every defer statement in source order. The
	// analysis treats all of them as (possibly) running at Exit, in
	// reverse order — a may-approximation of conditional defers.
	Defers []*ast.DeferStmt
}

// ctlFrame is one enclosing breakable/continuable construct.
type ctlFrame struct {
	label string
	brk   *CFGBlock
	cont  *CFGBlock // nil for switch/select frames
}

type cfgBuilder struct {
	g          *CFG
	cur        *CFGBlock
	frames     []ctlFrame
	labels     map[string]*CFGBlock // goto/label targets, by name
	fallTarget *CFGBlock            // next case body for fallthrough
}

// buildCFG constructs the control-flow graph of one function body.
func buildCFG(body *ast.BlockStmt) *CFG {
	b := &cfgBuilder{g: &CFG{}}
	b.g.Entry = b.newBlock()
	b.g.Exit = b.newBlock()
	b.cur = b.g.Entry
	b.stmtList(body.List)
	b.edge(b.g.Exit) // fall off the end
	return b.g
}

func (b *cfgBuilder) newBlock() *CFGBlock {
	blk := &CFGBlock{Index: len(b.g.Blocks)}
	b.g.Blocks = append(b.g.Blocks, blk)
	return blk
}

// edge adds a successor edge from the current block.
func (b *cfgBuilder) edge(to *CFGBlock) {
	b.cur.Succs = append(b.cur.Succs, to)
}

// jump ends the current block with an unconditional edge and continues
// into a fresh (unreachable unless targeted) block.
func (b *cfgBuilder) jump(to *CFGBlock) {
	b.edge(to)
	b.cur = b.newBlock()
}

func (b *cfgBuilder) add(n ast.Node) {
	b.cur.Nodes = append(b.cur.Nodes, n)
}

func (b *cfgBuilder) labelBlock(name string) *CFGBlock {
	if b.labels == nil {
		b.labels = map[string]*CFGBlock{}
	}
	blk := b.labels[name]
	if blk == nil {
		blk = b.newBlock()
		b.labels[name] = blk
	}
	return blk
}

func (b *cfgBuilder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s, "")
	}
}

// stmt lowers one statement; label is the enclosing label name, bound to
// the construct's break/continue targets when the statement is a loop or
// switch.
func (b *cfgBuilder) stmt(s ast.Stmt, label string) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmtList(s.List)

	case *ast.LabeledStmt:
		target := b.labelBlock(s.Label.Name)
		b.edge(target)
		b.cur = target
		b.stmt(s.Stmt, s.Label.Name)

	case *ast.IfStmt:
		if s.Init != nil {
			b.add(s.Init)
		}
		b.add(s.Cond)
		cond := b.cur
		cond.Cond = s.Cond
		thenB := b.newBlock()
		joinB := b.newBlock()
		cond.Succs = append(cond.Succs, thenB) // true edge
		b.cur = thenB
		b.stmtList(s.Body.List)
		b.edge(joinB)
		if s.Else != nil {
			elseB := b.newBlock()
			cond.Succs = append(cond.Succs, elseB) // false edge
			b.cur = elseB
			b.stmt(s.Else, "")
			b.edge(joinB)
		} else {
			cond.Succs = append(cond.Succs, joinB) // false edge
		}
		b.cur = joinB

	case *ast.ForStmt:
		if s.Init != nil {
			b.add(s.Init)
		}
		head := b.newBlock()
		body := b.newBlock()
		after := b.newBlock()
		post := head
		if s.Post != nil {
			post = b.newBlock()
		}
		b.edge(head)
		if s.Cond != nil {
			head.Nodes = append(head.Nodes, s.Cond)
			head.Cond = s.Cond
			head.Succs = append(head.Succs, body, after)
		} else {
			head.Succs = append(head.Succs, body)
		}
		b.frames = append(b.frames, ctlFrame{label: label, brk: after, cont: post})
		b.cur = body
		b.stmtList(s.Body.List)
		b.frames = b.frames[:len(b.frames)-1]
		b.edge(post)
		if s.Post != nil {
			b.cur = post
			b.add(s.Post)
			b.edge(head)
		}
		b.cur = after

	case *ast.RangeStmt:
		head := b.newBlock()
		body := b.newBlock()
		after := b.newBlock()
		b.edge(head)
		head.Nodes = append(head.Nodes, s) // binds key/value each iteration
		head.Succs = append(head.Succs, body, after)
		b.frames = append(b.frames, ctlFrame{label: label, brk: after, cont: head})
		b.cur = body
		b.stmtList(s.Body.List)
		b.frames = b.frames[:len(b.frames)-1]
		b.edge(head)
		b.cur = after

	case *ast.SwitchStmt:
		if s.Init != nil {
			b.add(s.Init)
		}
		if s.Tag != nil {
			b.add(s.Tag)
		}
		b.caseClauses(s.Body.List, label, func(cc *ast.CaseClause, blk *CFGBlock) {
			for _, e := range cc.List {
				blk.Nodes = append(blk.Nodes, e)
			}
		})

	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			b.add(s.Init)
		}
		b.add(s.Assign)
		b.caseClauses(s.Body.List, label, nil)

	case *ast.SelectStmt:
		head := b.cur
		after := b.newBlock()
		b.frames = append(b.frames, ctlFrame{label: label, brk: after})
		any := false
		for _, cs := range s.Body.List {
			cc := cs.(*ast.CommClause)
			blk := b.newBlock()
			head.Succs = append(head.Succs, blk)
			b.cur = blk
			if cc.Comm != nil {
				b.add(cc.Comm)
			}
			b.stmtList(cc.Body)
			b.edge(after)
			any = true
		}
		b.frames = b.frames[:len(b.frames)-1]
		if !any {
			head.Succs = append(head.Succs, after)
		}
		b.cur = after

	case *ast.ReturnStmt:
		b.add(s)
		b.jump(b.g.Exit)

	case *ast.BranchStmt:
		b.branch(s)

	case *ast.DeferStmt:
		b.add(s)
		b.g.Defers = append(b.g.Defers, s)

	case *ast.EmptyStmt:
		// nothing

	default:
		// Assign, Decl, Expr, Go, IncDec, Send: straight-line.
		b.add(s)
	}
}

// caseClauses lowers switch/type-switch bodies: the dispatch block
// branches to every case (and past the switch when there is no default);
// fallthrough jumps into the next case's body.
func (b *cfgBuilder) caseClauses(list []ast.Stmt, label string,
	guards func(*ast.CaseClause, *CFGBlock)) {
	head := b.cur
	after := b.newBlock()
	b.frames = append(b.frames, ctlFrame{label: label, brk: after})
	blocks := make([]*CFGBlock, len(list))
	hasDefault := false
	for i, cs := range list {
		blocks[i] = b.newBlock()
		head.Succs = append(head.Succs, blocks[i])
		if cc, ok := cs.(*ast.CaseClause); ok && cc.List == nil {
			hasDefault = true
		}
	}
	if !hasDefault {
		head.Succs = append(head.Succs, after)
	}
	for i, cs := range list {
		cc := cs.(*ast.CaseClause)
		if guards != nil {
			guards(cc, blocks[i])
		}
		savedFall := b.fallTarget
		if i+1 < len(list) {
			b.fallTarget = blocks[i+1]
		} else {
			b.fallTarget = after
		}
		b.cur = blocks[i]
		b.stmtList(cc.Body)
		b.edge(after)
		b.fallTarget = savedFall
	}
	b.frames = b.frames[:len(b.frames)-1]
	b.cur = after
}

func (b *cfgBuilder) branch(s *ast.BranchStmt) {
	name := ""
	if s.Label != nil {
		name = s.Label.Name
	}
	switch s.Tok.String() {
	case "break":
		for i := len(b.frames) - 1; i >= 0; i-- {
			fr := b.frames[i]
			if name == "" || fr.label == name {
				b.jump(fr.brk)
				return
			}
		}
	case "continue":
		for i := len(b.frames) - 1; i >= 0; i-- {
			fr := b.frames[i]
			if fr.cont != nil && (name == "" || fr.label == name) {
				b.jump(fr.cont)
				return
			}
		}
	case "goto":
		if name != "" {
			b.jump(b.labelBlock(name))
			return
		}
	case "fallthrough":
		if b.fallTarget != nil {
			b.jump(b.fallTarget)
			return
		}
	}
	// Malformed (shouldn't typecheck): treat as an exit.
	b.jump(b.g.Exit)
}

// reachableBlocks returns the blocks reachable from Entry in reverse
// postorder — the iteration order the dataflow engine uses.
func (g *CFG) reachableBlocks() []*CFGBlock {
	seen := make([]bool, len(g.Blocks))
	var order []*CFGBlock
	var visit func(*CFGBlock)
	visit = func(blk *CFGBlock) {
		if seen[blk.Index] {
			return
		}
		seen[blk.Index] = true
		for _, s := range blk.Succs {
			visit(s)
		}
		order = append(order, blk)
	}
	visit(g.Entry)
	// Reverse postorder.
	for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
		order[i], order[j] = order[j], order[i]
	}
	return order
}
