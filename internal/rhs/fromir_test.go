package rhs

import (
	"sort"
	"testing"

	"tracer/internal/dataflow"
	"tracer/internal/escape"
	"tracer/internal/ir"
	"tracer/internal/lang"
	"tracer/internal/pointsto"
	"tracer/internal/typestate"
	"tracer/internal/uset"
)

const nonRecursiveSrc = `
global G

class Box {
  field val
  method fill(this, x) {
    this.val = x
    return this
  }
  method leakMaybe(this) {
    if * {
      G = this
    }
  }
}

class Main {
  method main(this) {
    var a, b, c, r
    a = new Box @ hA
    b = new Box @ hB
    r = a.fill(b)
    a.leakMaybe()
    c = a.val
    loop {
      c = b
    }
  }
}
`

func load(t *testing.T, src string) (*ir.Program, *pointsto.Result, *Program) {
	t.Helper()
	prog := ir.MustParse(src)
	pt, err := pointsto.Analyze(prog)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := FromIR(prog, pt)
	if err != nil {
		t.Fatal(err)
	}
	return prog, pt, sp
}

// TestEquivalenceWithInliner: on an acyclic program, the tabulation over
// the supergraph computes exactly the same fact sets at each source-level
// field access as the intraprocedural solver over the inlined CFG, for the
// thread-escape analysis under several abstractions.
func TestEquivalenceWithInliner(t *testing.T) {
	_, _, sp := load(t, nonRecursiveSrc)
	low, err := sp.Inline()
	if err != nil {
		t.Fatal(err)
	}
	locals, fields, sites := escape.Universe(low.G)
	aInl := escape.New(locals, fields, sites)
	aRHS := escape.New(locals, fields, sites)

	for bits := 0; bits < 1<<len(sites); bits++ {
		var p uset.Set
		for i := range sites {
			if bits&(1<<i) != 0 {
				p = p.Add(aInl.Sites.ID(sites[i]))
			}
		}
		inl := dataflow.SolveBudget(low.G, aInl.Initial(), dataflow.At(aInl.Step, p), nil)
		rhs := SolveBudget(sp.G, aRHS.Initial(), dataflow.At(aRHS.Step, p), nil, nil)

		// Compare fact sets per source access statement.
		inlByStmt := map[ir.Stmt]map[string]bool{}
		for _, c := range low.Accesses {
			stmt := sp.Accesses[c.Rec].Stmt
			set := inlByStmt[stmt]
			if set == nil {
				set = map[string]bool{}
				inlByStmt[stmt] = set
			}
			for _, d := range inl.States(c.Node) {
				set[aInl.Format(d)] = true
			}
		}
		for _, fa := range sp.Accesses {
			want := inlByStmt[fa.Stmt]
			got := map[string]bool{}
			for _, d := range rhs.States(fa.At.Method, fa.At.Node) {
				got[aRHS.Format(d)] = true
			}
			if len(got) != len(want) {
				t.Fatalf("p=%v stmt %v: RHS %v vs inliner %v", p, fa.Stmt.Position(), keys(got), keys(want))
			}
			for k := range want {
				if !got[k] {
					t.Fatalf("p=%v stmt %v: RHS missing %s", p, fa.Stmt.Position(), k)
				}
			}
		}
	}
}

func keys(m map[string]bool) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// TestWitnessReplayEscape: RHS witnesses replay to their facts under the
// escape transfer functions across call boundaries.
func TestWitnessReplayEscape(t *testing.T) {
	_, _, sp := load(t, nonRecursiveSrc)
	locals, fields, sites := universeOf(sp.G)
	a := escape.New(locals, fields, sites)
	p := uset.New(a.Sites.ID("hA"))
	res := SolveBudget(sp.G, a.Initial(), dataflow.At(a.Step, p), nil, nil)
	for _, fa := range sp.Accesses {
		for _, d := range res.States(fa.At.Method, fa.At.Node) {
			tr := res.Witness(fa.At.Method, fa.At.Node, d)
			if got := dataflow.EvalTrace(tr, a.Initial(), dataflow.At(a.Step, p)); got != d {
				t.Fatalf("witness at %v replays to %s, want %s", fa.Stmt.Position(), a.Format(got), a.Format(d))
			}
		}
	}
}

// universeOf collects the universes from the supergraph's atoms.
func universeOf(g *Graph) (locals, fields, sites []string) {
	tmp := lang.NewCFG()
	n := tmp.AddNode()
	add := func(a lang.Atom) {
		m := tmp.AddNode()
		tmp.AddEdge(n, m, a)
	}
	for _, m := range g.Methods {
		for _, e := range m.Edges {
			if e.Atom != nil {
				add(e.Atom)
			}
			if e.Call != nil {
				for _, a := range e.Call.Bind {
					add(a)
				}
				for _, a := range e.Call.Ret {
					add(a)
				}
			}
		}
	}
	return escape.Universe(tmp)
}

const recursiveSrc = `
global G

class Node {
  field next
  method build(this, depth) {
    var child, out
    out = this
    if * {
      child = new Node @ hChild
      this.next = child
      out = child.build(depth)
    }
    return out
  }
}

class File {
  native method open(this)
  native method close(this)
}

class Main {
  method main(this) {
    var root, last, f
    root = new Node @ hRoot
    last = root.build(root)
    f = new File @ hFile
    f.open()
    f.close()
    query qf state(f: closed)
    query qroot local(root)
  }
}
`

// TestRecursiveProgram: Inline rejects the program, but the tabulation
// analyzes it; the File protocol query must be provable.
func TestRecursiveProgram(t *testing.T) {
	_, _, sp := load(t, recursiveSrc)
	if _, err := sp.Inline(); err == nil {
		t.Fatal("expected the inliner to reject recursion")
	}

	// Type-state on the File object: the trace through the recursive build
	// does not touch it, so tracking {f} proves the query.
	vars := universeVars(sp.G)
	a := typestate.New(typestate.FileProperty(), "hFile", vars)
	var fVar int
	for i, v := range vars {
		if v == "Main.main::f" {
			fVar = i
		}
	}
	p := uset.New(fVar)
	res := SolveBudget(sp.G, a.Initial(), dataflow.At(a.Step, p), nil, nil)
	var qf *ExplicitQuery
	for i := range sp.Queries {
		if sp.Queries[i].Name == "qf" {
			qf = &sp.Queries[i]
		}
	}
	if qf == nil {
		t.Fatal("query qf not lowered")
	}
	closed := uset.Bits(0).Add(a.Prop.MustState("closed"))
	for _, d := range res.States(qf.At.Method, qf.At.Node) {
		if !(typestate.Query{Want: closed}).Holds(d) {
			t.Fatalf("state %s violates qf despite tracking f", a.Format(d))
		}
	}
}

func universeVars(g *Graph) []string {
	tmp := lang.NewCFG()
	n := tmp.AddNode()
	add := func(a lang.Atom) {
		m := tmp.AddNode()
		tmp.AddEdge(n, m, a)
	}
	for _, m := range g.Methods {
		for _, e := range m.Edges {
			if e.Atom != nil {
				add(e.Atom)
			}
			if e.Call != nil {
				for _, a := range e.Call.Bind {
					add(a)
				}
				for _, a := range e.Call.Ret {
					add(a)
				}
			}
		}
	}
	return typestate.CollectVars(tmp)
}
