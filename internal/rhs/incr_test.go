package rhs

import (
	"math/rand"
	"os"
	"reflect"
	"strconv"
	"testing"

	"tracer/internal/dataflow"
	"tracer/internal/lang"
	"tracer/internal/uset"
)

// The flip-chain differential suite for the tabulation Chain: a parametric
// mock transfer whose three atoms are each gated on one abstraction
// parameter, a supergraph mixing branching contexts with recursion, and a
// seeded random walk over the abstraction lattice. Every step pins the
// Chain's contract against a cold SolveBudget of the same abstraction:
// identical Steps, identical per-node discovery sequences, identical
// witness traces.

// paramMockStep is the gated mock transfer: atom "a" increments only when
// parameter 0 is on, "b" zeroes only under parameter 1, "c" doubles only
// under parameter 2; off-parameters make the atom an identity, exactly the
// shape of the clients' parameter gating.
func paramMockStep(p *dataflow.Params, a lang.Atom, d int) int {
	mn, ok := a.(lang.MoveNull)
	if !ok {
		return d
	}
	switch mn.V {
	case "a":
		if !p.Has(0) {
			return d
		}
		return min(d+1, 9)
	case "b":
		if !p.Has(1) {
			return d
		}
		return 0
	case "c":
		if !p.Has(2) {
			return d
		}
		return (d * 2) % 10
	}
	return d
}

// flipGraph builds the shared fixture: main branches into two call contexts
// of a helper, then calls a self-recursive grower — summaries, multiple
// contexts, and a recursive fixpoint all participate in every replay.
func flipGraph() *Graph {
	g := &Graph{}
	helper := straightMethod(g, "helper", inc(), dbl())

	recIdx := g.NewMethod("rec")
	rm := g.Methods[recIdx]
	r0, r1, r2 := rm.AddNode(), rm.AddNode(), rm.AddNode()
	rm.Entry, rm.Exit = r0, r2
	rm.AddEdge(Edge{From: r0, To: r2})
	rm.AddEdge(Edge{From: r0, To: r1, Atom: inc()})
	rm.AddEdge(Edge{From: r1, To: r2, Call: &CallEdge{Callee: recIdx}})

	mainIdx := g.NewMethod("main")
	m := g.Methods[mainIdx]
	g.Main = mainIdx
	n0, nA, nB, n1, n2 := m.AddNode(), m.AddNode(), m.AddNode(), m.AddNode(), m.AddNode()
	m.Entry, m.Exit = n0, n2
	m.AddEdge(Edge{From: n0, To: nA, Atom: zero()})
	m.AddEdge(Edge{From: n0, To: nB, Atom: inc()})
	m.AddEdge(Edge{From: nA, To: n1, Call: &CallEdge{Callee: helper, Bind: []lang.Atom{inc()}}})
	m.AddEdge(Edge{From: nB, To: n1, Call: &CallEdge{Callee: helper, Ret: []lang.Atom{dbl()}}})
	m.AddEdge(Edge{From: n1, To: n2, Call: &CallEdge{Callee: recIdx}})
	return g
}

// checkChainEquiv compares a Chain solve against a cold solve node by node.
func checkChainEquiv(t *testing.T, g *Graph, got, want *Result[int], dI int, tr dataflow.Transfer[int]) {
	t.Helper()
	if got.Steps != want.Steps {
		t.Fatalf("Steps = %d, cold %d", got.Steps, want.Steps)
	}
	for mi, m := range g.Methods {
		for n := 0; n < m.Nodes; n++ {
			gs, ws := got.States(mi, n), want.States(mi, n)
			if !reflect.DeepEqual(gs, ws) {
				t.Fatalf("method %d node %d states = %v, cold %v", mi, n, gs, ws)
			}
			for _, d := range ws {
				gw, ww := got.Witness(mi, n, d), want.Witness(mi, n, d)
				if !reflect.DeepEqual(gw, ww) {
					t.Fatalf("method %d node %d fact %v witness %v, cold %v", mi, n, d, gw, ww)
				}
			}
		}
	}
	exit := g.Methods[g.Main].Exit
	for _, d := range want.States(g.Main, exit) {
		if replay := dataflow.EvalTrace(got.Witness(g.Main, exit, d), dI, tr); replay != d {
			t.Fatalf("main exit witness for %v replays to %v", d, replay)
		}
	}
}

// TestChainFlipChain walks seeds 1..CHAIN_FUZZ_N (default 1; make fuzz runs
// more).
func TestChainFlipChain(t *testing.T) {
	seeds := int64(1)
	if v, err := strconv.Atoi(os.Getenv("CHAIN_FUZZ_N")); err == nil && v > 0 {
		seeds = int64(v)
	}
	for seed := int64(1); seed <= seeds; seed++ {
		g := flipGraph()
		ch := NewChain[int](g)
		rng := rand.New(rand.NewSource(seed))
		for step := 0; step < 24; step++ {
			var ks []int
			for k := 0; k < 3; k++ {
				if rng.Intn(2) == 0 {
					ks = append(ks, k)
				}
			}
			p := uset.New(ks...)
			got := ch.Solve(p, 1, paramMockStep, nil, nil)
			want := SolveBudget(g, 1, dataflow.At(paramMockStep, p), nil, nil)
			checkChainEquiv(t, g, got, want, 1, dataflow.At(paramMockStep, p))
		}
	}
}

// TestChainFastPath re-solves an unchanged abstraction: the retained Result
// must be handed back without a replay, and a flip of a never-consulted
// parameter must do the same.
func TestChainFastPath(t *testing.T) {
	g := flipGraph()
	ch := NewChain[int](g)
	p := uset.New(0, 2)
	first := ch.Solve(p, 1, paramMockStep, nil, nil)
	second := ch.Solve(p, 1, paramMockStep, nil, nil)
	if second != first {
		t.Fatalf("unchanged abstraction did not serve the retained result")
	}
	if resumed, reused, invalidated := ch.Stats(); !resumed || reused != first.Steps || invalidated != 0 {
		t.Fatalf("fast path stats = (%v, %d, %d), want (true, %d, 0)", resumed, reused, invalidated, first.Steps)
	}
}

// TestChainInvalidation flips a consulted parameter and checks the delta
// accounting distinguishes reuse from recomputation.
func TestChainInvalidation(t *testing.T) {
	g := flipGraph()
	ch := NewChain[int](g)
	p := uset.New(0)
	ch.Solve(p, 1, paramMockStep, nil, nil)
	q := uset.New(0, 1)
	got := ch.Solve(q, 1, paramMockStep, nil, nil)
	want := SolveBudget(g, 1, dataflow.At(paramMockStep, q), nil, nil)
	checkChainEquiv(t, g, got, want, 1, dataflow.At(paramMockStep, q))
	resumed, _, invalidated := ch.Stats()
	if !resumed || invalidated == 0 {
		t.Fatalf("flip of a consulted parameter: stats = (%v, _, %d), want a resume with invalidations", resumed, invalidated)
	}
}
