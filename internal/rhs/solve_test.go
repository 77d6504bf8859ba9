package rhs

import (
	"testing"

	"tracer/internal/dataflow"
	"tracer/internal/lang"
)

// The mock domain: ints with atoms interpreted by variable name:
// "a = null" increments (capped at 9), "b = null" zeroes, "c = null"
// doubles mod 10.
func mockTr(a lang.Atom, d int) int {
	if mn, ok := a.(lang.MoveNull); ok {
		switch mn.V {
		case "a":
			if d < 9 {
				return d + 1
			}
			return 9
		case "b":
			return 0
		case "c":
			return (d * 2) % 10
		}
	}
	return d
}

func inc() lang.Atom  { return lang.MoveNull{V: "a"} }
func zero() lang.Atom { return lang.MoveNull{V: "b"} }
func dbl() lang.Atom  { return lang.MoveNull{V: "c"} }

// straightMethod builds a method executing the given atoms in sequence.
func straightMethod(g *Graph, name string, atoms ...lang.Atom) int {
	idx := g.NewMethod(name)
	m := g.Methods[idx]
	m.Entry = m.AddNode()
	cur := m.Entry
	for _, a := range atoms {
		next := m.AddNode()
		m.AddEdge(Edge{From: cur, To: next, Atom: a})
		cur = next
	}
	m.Exit = cur
	return idx
}

// TestIntraOnly: a single method behaves like the intraprocedural solver.
func TestIntraOnly(t *testing.T) {
	g := &Graph{}
	g.Main = straightMethod(g, "main", inc(), inc(), dbl())
	r := SolveBudget(g, 0, mockTr, nil, nil)
	exit := g.Methods[g.Main].Exit
	states := r.States(g.Main, exit)
	if len(states) != 1 || states[0] != 4 {
		t.Fatalf("exit states = %v, want [4]", states)
	}
	tr := r.Witness(g.Main, exit, 4)
	if got := dataflow.EvalTrace(tr, 0, mockTr); got != 4 {
		t.Fatalf("witness %q replays to %d", tr, got)
	}
}

// TestCallAndSummary: main calls helper twice; the summary is reused and
// bind/ret atoms apply around the call.
func TestCallAndSummary(t *testing.T) {
	g := &Graph{}
	helper := straightMethod(g, "helper", inc(), inc())
	mainIdx := g.NewMethod("main")
	m := g.Methods[mainIdx]
	g.Main = mainIdx
	n0 := m.AddNode()
	n1 := m.AddNode()
	n2 := m.AddNode()
	m.Entry, m.Exit = n0, n2
	m.AddEdge(Edge{From: n0, To: n1, Call: &CallEdge{Callee: helper, Bind: []lang.Atom{dbl()}}})
	m.AddEdge(Edge{From: n1, To: n2, Call: &CallEdge{Callee: helper, Ret: []lang.Atom{dbl()}}})
	r := SolveBudget(g, 1, mockTr, nil, nil)
	// 1 → bind dbl → 2 → helper(+2) → 4 → call 2 → 6 → ret dbl → 12 mod 10 = 2.
	states := r.States(mainIdx, n2)
	if len(states) != 1 || states[0] != 2 {
		t.Fatalf("exit states = %v, want [2]", states)
	}
	tr := r.Witness(mainIdx, n2, 2)
	if got := dataflow.EvalTrace(tr, 1, mockTr); got != 2 {
		t.Fatalf("witness %q replays to %d", tr, got)
	}
	// The spliced trace contains both helper bodies: four increments.
	incs := 0
	for _, a := range tr {
		if a == inc() {
			incs++
		}
	}
	if incs != 4 {
		t.Fatalf("witness %q has %d increments, want 4", tr, incs)
	}
}

// TestBranchingContexts: a callee invoked with two different entry facts
// gets two summaries.
func TestBranchingContexts(t *testing.T) {
	g := &Graph{}
	helper := straightMethod(g, "helper", inc())
	mainIdx := g.NewMethod("main")
	m := g.Methods[mainIdx]
	g.Main = mainIdx
	n0, nA, nB, n1, n2 := m.AddNode(), m.AddNode(), m.AddNode(), m.AddNode(), m.AddNode()
	m.Entry, m.Exit = n0, n2
	m.AddEdge(Edge{From: n0, To: nA, Atom: zero()}) // 0
	m.AddEdge(Edge{From: n0, To: nB, Atom: inc()})  // dI+1
	m.AddEdge(Edge{From: nA, To: n1})
	m.AddEdge(Edge{From: nB, To: n1})
	m.AddEdge(Edge{From: n1, To: n2, Call: &CallEdge{Callee: helper}})
	r := SolveBudget(g, 3, mockTr, nil, nil)
	got := map[int]bool{}
	for _, d := range r.States(mainIdx, n2) {
		got[d] = true
	}
	if !got[1] || !got[5] || len(got) != 2 {
		t.Fatalf("exit states = %v, want {1, 5}", got)
	}
	for d := range got {
		tr := r.Witness(mainIdx, n2, d)
		if replay := dataflow.EvalTrace(tr, 3, mockTr); replay != d {
			t.Fatalf("witness %q replays to %d, want %d", tr, replay, d)
		}
	}
}

// TestRecursion: a method that either stops or increments and recurses.
// The summary fixpoint must produce every value from the entry fact up to
// the cap without diverging.
func TestRecursion(t *testing.T) {
	g := &Graph{}
	recIdx := g.NewMethod("rec")
	m := g.Methods[recIdx]
	n0, n1, n2 := m.AddNode(), m.AddNode(), m.AddNode()
	m.Entry, m.Exit = n2, n2 // set below properly
	m.Entry = n0
	m.Exit = n2
	// entry → (ε) exit  |  entry → inc → call rec → exit
	m.AddEdge(Edge{From: n0, To: n2})
	m.AddEdge(Edge{From: n0, To: n1, Atom: inc()})
	m.AddEdge(Edge{From: n1, To: n2, Call: &CallEdge{Callee: recIdx}})

	mainIdx := g.NewMethod("main")
	mm := g.Methods[mainIdx]
	g.Main = mainIdx
	a0, a1 := mm.AddNode(), mm.AddNode()
	mm.Entry, mm.Exit = a0, a1
	mm.AddEdge(Edge{From: a0, To: a1, Call: &CallEdge{Callee: recIdx}})

	r := SolveBudget(g, 5, mockTr, nil, nil)
	got := map[int]bool{}
	for _, d := range r.States(mainIdx, a1) {
		got[d] = true
	}
	for want := 5; want <= 9; want++ {
		if !got[want] {
			t.Fatalf("exit states = %v, missing %d", got, want)
		}
	}
	if len(got) != 5 {
		t.Fatalf("exit states = %v, want exactly {5..9}", got)
	}
	// Witnesses through recursive splices must replay correctly.
	for d := range got {
		tr := r.Witness(mainIdx, a1, d)
		if replay := dataflow.EvalTrace(tr, 5, mockTr); replay != d {
			t.Fatalf("witness %q replays to %d, want %d", tr, replay, d)
		}
	}
}

// TestWitnessPanicsOnUnreached mirrors the intraprocedural solver contract.
func TestWitnessPanicsOnUnreached(t *testing.T) {
	g := &Graph{}
	g.Main = straightMethod(g, "main", inc())
	r := SolveBudget(g, 0, mockTr, nil, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	r.Witness(g.Main, g.Methods[g.Main].Exit, 42)
}
