package rhs

import (
	"fmt"

	"tracer/internal/ir"
	"tracer/internal/lang"
)

// Point is a program point in the supergraph: a node within a method.
type Point struct {
	Method int
	Node   int
}

// CallSite records a lowered call statement (one per source statement:
// unlike the inlined view, the supergraph has exactly one copy of each
// method).
type CallSite struct {
	Stmt   *ir.CallStmt
	Method *ir.Method
	At     Point // immediately before the Invoke event
	Recv   string

	// edge is the number of edges the method had when the statement was
	// lowered: Inline emits the record's copies at that point of the
	// method's edge list, in statement order.
	edge int
}

// FieldAccess records a lowered field load or store.
type FieldAccess struct {
	Stmt   ir.Stmt
	Method *ir.Method
	At     Point
	Base   string

	edge int
}

// ExplicitQuery records a lowered query statement.
type ExplicitQuery struct {
	Name   string
	Kind   ir.QueryKind
	Var    string
	States []string
	At     Point
	Method *ir.Method

	edge int
}

// Program is a whole program lowered onto a supergraph. Methods are lowered
// in the order of their supergraph indices, so each record list holds one
// method's records contiguously, in the order its statements were lowered.
type Program struct {
	G        *Graph
	IR       *ir.Program
	Calls    []CallSite
	Accesses []FieldAccess
	Queries  []ExplicitQuery

	// methods maps supergraph method indices back to source methods.
	methods   []*ir.Method
	methodIdx map[*ir.Method]int
}

// Oracle is the call-graph oracle the lowering needs: which methods to
// lower, and the possible callees of a call statement. The pointsto
// package's Result implements it; an interface avoids the import and lets
// tests use hand-written call graphs.
type Oracle interface {
	Reachable(m *ir.Method) bool
	Targets(s *ir.CallStmt) []*ir.Method
}

// FromIR lowers every reachable non-native method onto its own graph, with
// call edges for resolved targets. Recursion is allowed: the tabulation
// solver computes summaries as fixpoints (Inline, which expands the
// supergraph, rejects it).
func FromIR(prog *ir.Program, res Oracle) (*Program, error) {
	main := prog.Main()
	if main == nil {
		return nil, fmt.Errorf("rhs: program has no Main.main entry method")
	}
	p := &Program{G: &Graph{}, IR: prog, methodIdx: map[*ir.Method]int{}}
	for _, m := range prog.Methods() {
		if m.Native || !res.Reachable(m) {
			continue
		}
		p.methodIdx[m] = p.G.NewMethod(m.QualName())
		p.methods = append(p.methods, m)
	}
	if _, ok := p.methodIdx[main]; !ok {
		return nil, fmt.Errorf("rhs: entry method not reachable")
	}
	p.G.Main = p.methodIdx[main]
	for idx, m := range p.methods {
		if err := p.lowerMethod(m, idx, res); err != nil {
			return nil, err
		}
	}
	return p, nil
}

func (p *Program) lowerMethod(m *ir.Method, idx int, res Oracle) error {
	mg := p.G.Methods[idx]
	mg.Entry = mg.AddNode()
	cur := mg.Entry
	// Fresh frame: locals start null on every invocation (including
	// recursive ones).
	for _, v := range m.Locals {
		next := mg.AddNode()
		mg.AddEdge(Edge{From: cur, To: next, Atom: lang.MoveNull{V: ir.Qualify(m, v)}})
		cur = next
	}
	end, err := p.lowerBlock(m, idx, mg, m.Body, cur, res)
	if err != nil {
		return err
	}
	mg.Exit = end
	return nil
}

func (p *Program) lowerBlock(m *ir.Method, idx int, mg *Method, body []ir.Stmt, from int, res Oracle) (int, error) {
	cur := from
	var err error
	for _, s := range body {
		cur, err = p.lowerStmt(m, idx, mg, s, cur, res)
		if err != nil {
			return 0, err
		}
	}
	return cur, nil
}

// atom appends an intra edge.
func (p *Program) atom(mg *Method, from int, a lang.Atom) int {
	to := mg.AddNode()
	mg.AddEdge(Edge{From: from, To: to, Atom: a})
	return to
}

func (p *Program) lowerStmt(m *ir.Method, idx int, mg *Method, s ir.Stmt, from int, res Oracle) (int, error) {
	q := func(v string) string { return ir.Qualify(m, v) }
	switch s := s.(type) {
	case *ir.NewStmt:
		return p.atom(mg, from, lang.Alloc{V: q(s.Dst), H: s.Site}), nil
	case *ir.MoveStmt:
		return p.atom(mg, from, lang.Move{Dst: q(s.Dst), Src: q(s.Src)}), nil
	case *ir.NullStmt:
		return p.atom(mg, from, lang.MoveNull{V: q(s.Dst)}), nil
	case *ir.GlobalGet:
		return p.atom(mg, from, lang.GlobalRead{V: q(s.Dst), G: s.Global}), nil
	case *ir.GlobalPut:
		return p.atom(mg, from, lang.GlobalWrite{G: s.Global, V: q(s.Src)}), nil
	case *ir.LoadStmt:
		p.Accesses = append(p.Accesses, FieldAccess{Stmt: s, Method: m, At: Point{idx, from}, Base: q(s.Src), edge: len(mg.Edges)})
		return p.atom(mg, from, lang.Load{Dst: q(s.Dst), Src: q(s.Src), F: s.Field}), nil
	case *ir.StoreStmt:
		p.Accesses = append(p.Accesses, FieldAccess{Stmt: s, Method: m, At: Point{idx, from}, Base: q(s.Dst), edge: len(mg.Edges)})
		return p.atom(mg, from, lang.Store{Dst: q(s.Dst), F: s.Field, Src: q(s.Src)}), nil
	case *ir.IfStmt:
		thenEnd, err := p.lowerBlock(m, idx, mg, s.Then, from, res)
		if err != nil {
			return 0, err
		}
		elseEnd, err := p.lowerBlock(m, idx, mg, s.Else, from, res)
		if err != nil {
			return 0, err
		}
		join := mg.AddNode()
		mg.AddEdge(Edge{From: thenEnd, To: join})
		mg.AddEdge(Edge{From: elseEnd, To: join})
		return join, nil
	case *ir.LoopStmt:
		head := mg.AddNode()
		mg.AddEdge(Edge{From: from, To: head})
		bodyEnd, err := p.lowerBlock(m, idx, mg, s.Body, head, res)
		if err != nil {
			return 0, err
		}
		mg.AddEdge(Edge{From: bodyEnd, To: head})
		return head, nil
	case *ir.ReturnStmt:
		return from, nil
	case *ir.QueryStmt:
		p.Queries = append(p.Queries, ExplicitQuery{
			Name: s.Name, Kind: s.Kind, Var: q(s.Var), States: s.States,
			At: Point{idx, from}, Method: m, edge: len(mg.Edges),
		})
		return from, nil
	case *ir.CallStmt:
		return p.lowerCall(m, idx, mg, s, from, res)
	}
	return 0, fmt.Errorf("rhs: cannot lower statement %T", s)
}

func (p *Program) lowerCall(m *ir.Method, idx int, mg *Method, s *ir.CallStmt, from int, res Oracle) (int, error) {
	recv := ir.Qualify(m, s.Recv)
	p.Calls = append(p.Calls, CallSite{Stmt: s, Method: m, At: Point{idx, from}, Recv: recv, edge: len(mg.Edges)})
	cur := p.atom(mg, from, lang.Invoke{V: recv, M: s.Method})
	var bodied []*ir.Method
	for _, callee := range res.Targets(s) {
		if !callee.Native {
			if _, lowered := p.methodIdx[callee]; lowered {
				bodied = append(bodied, callee)
			}
		}
	}
	if len(bodied) == 0 {
		if s.Dst != "" {
			cur = p.atom(mg, cur, lang.MoveNull{V: ir.Qualify(m, s.Dst)})
		}
		return cur, nil
	}
	retSite := mg.AddNode()
	for _, callee := range bodied {
		ce := &CallEdge{Callee: p.methodIdx[callee]}
		ce.Bind = append(ce.Bind, lang.Move{Dst: ir.Qualify(callee, "this"), Src: recv})
		for i, param := range callee.Params {
			if i < len(s.Args) {
				ce.Bind = append(ce.Bind, lang.Move{Dst: ir.Qualify(callee, param), Src: ir.Qualify(m, s.Args[i])})
			} else {
				ce.Bind = append(ce.Bind, lang.MoveNull{V: ir.Qualify(callee, param)})
			}
		}
		if s.Dst != "" {
			if ret := returnVar(callee); ret != "" {
				ce.Ret = append(ce.Ret, lang.Move{Dst: ir.Qualify(m, s.Dst), Src: ir.Qualify(callee, ret)})
			} else {
				ce.Ret = append(ce.Ret, lang.MoveNull{V: ir.Qualify(m, s.Dst)})
			}
		}
		mg.AddEdge(Edge{From: cur, To: retSite, Call: ce})
	}
	return retSite, nil
}

func returnVar(m *ir.Method) string {
	if len(m.Body) == 0 {
		return ""
	}
	if ret, ok := m.Body[len(m.Body)-1].(*ir.ReturnStmt); ok {
		return ret.Src
	}
	return ""
}
