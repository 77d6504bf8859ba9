package rhs

import (
	"fmt"

	"tracer/internal/ir"
	"tracer/internal/lang"
)

// MaxInlineDepth bounds how many methods a call chain from Main.main may
// nest: Inline rejects deeper chains.
const MaxInlineDepth = 64

// Inlined is the supergraph expanded in place from Main's entry into one
// CFG, which the intraprocedural solver runs on. Each call edge becomes,
// per callee, the binding atoms, a fresh copy of the callee's body, the
// return atoms and an ε edge to the return site: the exploded supergraph of
// an RHS tabulation, specialized to acyclic call graphs (see DESIGN.md).
// Locals keep their per-method names in every copy.
type Inlined struct {
	G *lang.CFG
	// Calls, Accesses and Queries list every copy of the program's records
	// (Program.Calls, Accesses and Queries), in the order their statements
	// occur in the expansion.
	Calls, Accesses, Queries []Copy
	// Atoms counts non-ε edges, a proxy for "bytecodes" in Table 1.
	Atoms int
	// AtomsByMethod attributes atom counts to the source method whose
	// statement produced them (binding and return atoms count toward the
	// caller).
	AtomsByMethod map[*ir.Method]int
}

// Copy is one inlined copy of a supergraph record: Rec indexes the
// program's record list, Node is the copy of the record's point.
type Copy struct{ Rec, Node int }

// recPos is where a record was lowered: its method, its edge position (see
// CallSite.edge) and its node.
type recPos struct{ m, edge, node int }

type inliner struct {
	p     *Program
	out   *Inlined
	stack []int // the methods being inlined, outermost first

	// recs holds the calls', accesses' and queries' positions in list
	// order, first each method's first index in them, and dst the lists
	// their copies go to.
	recs  [3][]recPos
	first [3][]int
	dst   [3]*[]Copy
}

// Inline expands the supergraph into one CFG. Each method copy allocates
// its nodes in supergraph order and takes its edges in list order, splicing
// in a call edge's callee copies at the call edge's turn, so that node
// numbers, edge order and record order follow the statements as they are
// lowered. It fails on a recursive call chain and on one that nests more
// than MaxInlineDepth methods; the errors are about the IR program's call
// graph, so they say "ir".
func (p *Program) Inline() (*Inlined, error) {
	out := &Inlined{G: lang.NewCFG(), AtomsByMethod: map[*ir.Method]int{}}
	in := &inliner{p: p, out: out, dst: [3]*[]Copy{&out.Calls, &out.Accesses, &out.Queries}}
	for _, c := range p.Calls {
		in.recs[0] = append(in.recs[0], recPos{c.At.Method, c.edge, c.At.Node})
	}
	for _, a := range p.Accesses {
		in.recs[1] = append(in.recs[1], recPos{a.At.Method, a.edge, a.At.Node})
	}
	for _, q := range p.Queries {
		in.recs[2] = append(in.recs[2], recPos{q.At.Method, q.edge, q.At.Node})
	}
	for k, recs := range in.recs {
		in.first[k] = make([]int, len(p.G.Methods))
		for i := len(recs) - 1; i >= 0; i-- {
			in.first[k][recs[i].m] = i
		}
	}
	g := out.G
	g.Entry = g.AddNode()
	exit, err := in.method(p.G.Main, g.Entry)
	if err != nil {
		return nil, err
	}
	g.Exit = exit
	for _, e := range g.Edges {
		if e.A != nil {
			out.Atoms++
		}
	}
	return out, nil
}

// method inlines a copy of method mi entered at node entry, and returns the
// copy of its exit.
func (in *inliner) method(mi, entry int) (int, error) {
	mg, m := in.p.G.Methods[mi], in.p.methods[mi]
	for _, prev := range in.stack {
		if prev == mi {
			return 0, fmt.Errorf("ir: recursive call chain through %s (the inlining lowering requires an acyclic call graph)", mg.Name)
		}
	}
	if len(in.stack) >= MaxInlineDepth {
		return 0, fmt.Errorf("ir: inlining depth limit (%d) exceeded at %s", MaxInlineDepth, mg.Name)
	}
	in.stack = append(in.stack, mi)
	defer func() { in.stack = in.stack[:len(in.stack)-1] }()

	g := in.out.G
	atom := func(from int, a lang.Atom) int {
		to := g.AddNode()
		g.AddEdge(from, to, a)
		in.out.AtomsByMethod[m]++
		return to
	}
	// node maps the method's nodes to the copy's. FromIR allocates every
	// node but the entry right before the first edge into it, so
	// allocating up to an edge's endpoints before taking it keeps that
	// order.
	node := make([]int, mg.Nodes)
	node[mg.Entry] = entry
	next := mg.Entry + 1
	var cur [3]int
	for k := range cur {
		cur[k] = in.first[k][mi]
	}
	// emit copies the method's records lowered before its edge e.
	emit := func(e int) {
		for k, recs := range in.recs {
			for ; cur[k] < len(recs) && recs[cur[k]].m == mi && recs[cur[k]].edge <= e; cur[k]++ {
				*in.dst[k] = append(*in.dst[k], Copy{cur[k], node[recs[cur[k]].node]})
			}
		}
	}
	for i, e := range mg.Edges {
		emit(i)
		for ; next <= max(e.From, e.To); next++ {
			node[next] = g.AddNode()
		}
		if e.Call == nil {
			g.AddEdge(node[e.From], node[e.To], e.Atom)
			if e.Atom != nil {
				in.out.AtomsByMethod[m]++
			}
			continue
		}
		end := node[e.From]
		for _, a := range e.Call.Bind {
			end = atom(end, a)
		}
		end, err := in.method(e.Call.Callee, end)
		if err != nil {
			return 0, err
		}
		for _, a := range e.Call.Ret {
			end = atom(end, a)
		}
		g.AddEdge(end, node[e.To], nil)
	}
	emit(len(mg.Edges))
	return node[mg.Exit], nil
}
