package minsat

import (
	"math/rand"
	"testing"
	"time"

	"tracer/internal/budget"
	"tracer/internal/obs"
	"tracer/internal/uset"
)

// engines names each way a solver answers (its diagram) as a subtest of
// the tests below.
var engines = []struct {
	name string
	new  func(n int) *Solver
}{{"diagram", New}}

// freshMinimum rebuilds a solver from scratch over the same clause set and
// solves it, so every differential test below compares the incremental
// answer against one computed with no carried state at all.
func freshMinimum(s *Solver) (uset.Set, bool) {
	f := New(s.NumVars())
	for _, c := range s.clauses {
		f.Add(append(Clause(nil), c...))
	}
	return f.Minimum()
}

// randClause draws a non-tautological clause over n variables.
func randClause(rng *rand.Rand, n int) Clause {
	var c Clause
	for len(c) == 0 {
		for v := 0; v < n; v++ {
			if rng.Intn(4) == 0 {
				c = append(c, Lit{Var: v, Neg: rng.Intn(2) == 0})
			}
		}
	}
	return c
}

// TestIncrementalMatchesFresh drives one solver through a CEGAR-shaped
// clause sequence — solve, add a batch of clauses, solve again — and pins
// every incremental answer against a from-scratch solver (and, on small
// universes, against brute-force enumeration). Once UNSAT is reached, the
// verdict must stay sticky and still match the fresh solver.
func TestIncrementalMatchesFresh(t *testing.T) {
	for _, e := range engines {
		t.Run(e.name, func(t *testing.T) { incrementalMatchesFresh(t, e.new) })
	}
}

func incrementalMatchesFresh(t *testing.T, newSolver func(int) *Solver) {
	rng := rand.New(rand.NewSource(41))
	const n = 8
	for trial := 0; trial < 120; trial++ {
		s := newSolver(n)
		for round := 0; round < 12; round++ {
			for i := rng.Intn(3); i >= 0; i-- {
				s.Add(randClause(rng, n))
			}
			got, ok := s.Minimum()
			want, wantOK := freshMinimum(s)
			if ok != wantOK {
				t.Fatalf("trial %d round %d: sat=%v fresh=%v", trial, round, ok, wantOK)
			}
			brute, bruteOK := bruteMinimum(s, n)
			if ok != bruteOK {
				t.Fatalf("trial %d round %d: sat=%v brute=%v", trial, round, ok, bruteOK)
			}
			if !ok {
				continue
			}
			if !got.Equal(want) {
				t.Fatalf("trial %d round %d: model %v, fresh %v", trial, round, got, want)
			}
			if !got.Equal(brute) {
				t.Fatalf("trial %d round %d: model %v, brute %v", trial, round, got, brute)
			}
		}
	}
}

// TestIncrementalBlocksOwnModel mirrors the real CEGAR interaction: each
// round blocks the model just returned, so the cached answer never survives
// and every call conjoins into the diagram again.
func TestIncrementalBlocksOwnModel(t *testing.T) {
	for _, e := range engines {
		t.Run(e.name, func(t *testing.T) { incrementalBlocksOwnModel(t, e.new) })
	}
}

func incrementalBlocksOwnModel(t *testing.T, newSolver func(int) *Solver) {
	rng := rand.New(rand.NewSource(42))
	const n = 9
	for trial := 0; trial < 40; trial++ {
		s := newSolver(n)
		for i := 0; i < 4; i++ {
			s.Add(randClause(rng, n))
		}
		for round := 0; ; round++ {
			got, ok := s.Minimum()
			want, wantOK := freshMinimum(s)
			if ok != wantOK {
				t.Fatalf("trial %d round %d: sat=%v fresh=%v", trial, round, ok, wantOK)
			}
			if !ok {
				break
			}
			if !got.Equal(want) {
				t.Fatalf("trial %d round %d: model %v, fresh %v", trial, round, got, want)
			}
			// Block exactly this abstraction, as learnCubes does.
			s.Block(got, nil)
			if round > 1<<n {
				t.Fatalf("trial %d: blocking loop failed to terminate", trial)
			}
		}
	}
}

// TestIncrementalCloneDivergence: clones inherit their parent's diagram but
// diverge independently; both lineages must keep matching fresh solvers.
func TestIncrementalCloneDivergence(t *testing.T) {
	for _, e := range engines {
		t.Run(e.name, func(t *testing.T) { incrementalCloneDivergence(t, e.new) })
	}
}

func incrementalCloneDivergence(t *testing.T, newSolver func(int) *Solver) {
	rng := rand.New(rand.NewSource(43))
	const n = 8
	for trial := 0; trial < 60; trial++ {
		s := newSolver(n)
		for i := 0; i < 3; i++ {
			s.Add(randClause(rng, n))
		}
		s.Minimum() // warm the parent
		c := s.Clone()
		s.Add(randClause(rng, n))
		c.Add(randClause(rng, n))
		c.Add(randClause(rng, n))
		for name, sv := range map[string]*Solver{"parent": s, "clone": c} {
			got, ok := sv.Minimum()
			want, wantOK := freshMinimum(sv)
			if ok != wantOK || (ok && !got.Equal(want)) {
				t.Fatalf("trial %d %s: got %v,%v fresh %v,%v", trial, name, got, ok, want, wantOK)
			}
		}
	}
}

// TestIncrementalAbortKeepsWarmState: a budget-aborted call must not
// corrupt what the solver carries between calls — the next unbudgeted call
// still answers exactly like a fresh solver. A 24-vertex cover, whose
// diagram fits the cap, is aborted twice by a 3-step quota in the middle of
// an apply.
func TestIncrementalAbortKeepsWarmState(t *testing.T) {
	s := hardInstance(24)
	if _, ok := s.Minimum(); !ok {
		t.Fatal("hard instance unexpectedly unsat")
	}
	for i := 0; i < 2; i++ {
		// Block the cached model so the next solve cannot reuse the previous
		// answer, then abort it.
		m, _ := s.Minimum()
		s.Block(m, nil)
		b := budget.New(nil, time.Time{}, 3)
		if _, ok := s.MinimumBudget(b); ok || b.Cause() != budget.Steps {
			t.Fatalf("abort %d: aborted call returned a model (cause %v)", i, b.Cause())
		}
		got, ok := s.Minimum()
		want, wantOK := freshMinimum(s)
		if ok != wantOK || !got.Equal(want) {
			t.Fatalf("abort %d: post-abort minimum %v,%v; fresh %v,%v", i, got, ok, want, wantOK)
		}
	}
}

// TestDiagramReuseCounter: on the diagram, a call counts on
// minsat.incremental_reuse exactly when its diagram is the one the previous
// answer was read from — unchanged clause set, every added clause already
// implied, or sticky UNSAT — and makes no node. A clause the cached model
// satisfies but the diagram does not imply changes the diagram, so that call
// walks again and is not a reuse.
func TestDiagramReuseCounter(t *testing.T) {
	agg := obs.NewAgg()
	s := New(6)
	s.Instrument(agg)
	reuses := func() int64 { return agg.Counter(obs.MinsatIncrementalReuse) }
	nodes := func() int64 { return agg.Counter(obs.MinsatSearchNodes) }
	s.Add(Clause{{Var: 0}, {Var: 1}})
	s.Minimum() // cold: builds the diagram
	if n := reuses(); n != 0 {
		t.Fatalf("cold solve counted %d reuses", n)
	}
	if nodes() == 0 {
		t.Fatal("cold solve made no diagram node")
	}
	made := nodes()
	s.Minimum() // unchanged clause set
	if n := reuses(); n != 1 || nodes() != made {
		t.Fatalf("unchanged-set reuse = %d (%d nodes made), want 1 (0)", n, nodes()-made)
	}
	s.Add(Clause{{Var: 0}, {Var: 1}, {Var: 3}}) // implied by x0 ∨ x1
	if m, _ := s.Minimum(); !m.Equal(uset.New(1)) {
		t.Fatalf("model %v, want {1}", m)
	}
	if n := reuses(); n != 2 || nodes() != made {
		t.Fatalf("implied-clause reuse = %d (%d nodes made), want 2 (0)", n, nodes()-made)
	}
	s.Add(Clause{{Var: 2}, {Var: 1}}) // satisfied by the cached model {1}, not implied
	if m, _ := s.Minimum(); !m.Equal(uset.New(1)) {
		t.Fatalf("model %v, want {1}", m)
	}
	if n := reuses(); n != 2 {
		t.Fatalf("changed diagram counted as reuse: %d", n)
	}
	s.Add(Clause{{Var: 1, Neg: true}}) // blocks the cached model
	if m, _ := s.Minimum(); !m.Equal(uset.New(0, 2)) {
		t.Fatalf("model %v, want {0,2}", m)
	}
	if n := reuses(); n != 2 {
		t.Fatalf("new model counted as reuse: %d", n)
	}
	s.Block(nil, nil) // empty clause: UNSAT
	s.Minimum()       // proves UNSAT (not a reuse: first detection)
	s.Minimum()       // sticky UNSAT: reuse
	if n := reuses(); n != 3 {
		t.Fatalf("sticky-unsat reuse = %d, want 3", n)
	}
}

// cegarRounds records the blocking cubes of a CEGAR run that never proves
// its query, the shape an exhausted thread-escape query leaves in minsat:
// each round learns one or two mixed-sign cubes that contain the current
// minimum model (most of its variables on, two to seven variables outside
// it off), so every round forces a new answer. It stops after `rounds`
// rounds or at UNSAT, and returns the cubes of each round as (pos, neg)
// pairs.
func cegarRounds(vars, rounds int, seed int64) [][][2]uset.Set {
	rng := rand.New(rand.NewSource(seed))
	s := New(vars)
	var seq [][][2]uset.Set
	var model uset.Set
	for r := 0; r < rounds; r++ {
		var round [][2]uset.Set
		for i := rng.Intn(2); i >= 0; i-- {
			var pos, neg uset.Set
			for _, v := range model.Elems() {
				if rng.Intn(4) != 0 {
					pos = pos.Add(v)
				}
			}
			for j := 2 + rng.Intn(6); j > 0; j-- {
				if v := rng.Intn(vars); !model.Has(v) {
					neg = neg.Add(v)
				}
			}
			s.Block(pos, neg)
			round = append(round, [2]uset.Set{pos, neg})
		}
		seq = append(seq, round)
		m, ok := s.Minimum()
		if !ok {
			break
		}
		model = m
	}
	return seq
}

// TestDiagramCompactsBeforeTrip replays BenchmarkMinimumCEGAR's sequence on
// a diagram capped at twice the most nodes any of its roots reaches. The
// arena fills with nodes earlier applies left unreachable long before the
// live diagram nears that cap, so the solver must compact instead of
// tripping its budget on the cap, and every call must agree with the
// reference.
func TestDiagramCompactsBeforeTrip(t *testing.T) {
	const vars = 20
	seq := cegarRounds(vars, 100, 1)
	probe := New(vars)
	peak, arena := 0, 0
	for _, round := range seq {
		for _, c := range round {
			probe.Block(c[0], c[1])
		}
		probe.Minimum()
		peak = max(peak, len(probe.bdd.compact().nodes))
		arena = len(probe.bdd.nodes)
	}
	if arena <= 2*peak {
		t.Fatalf("uncapped probe: arena %d nodes, largest live root %d; want an arena past twice the live peak",
			arena, peak)
	}
	d, ref := New(vars), newRefSolver(vars)
	d.bdd = newDiagram(2 * peak)
	for r, round := range seq {
		for _, c := range round {
			d.Block(c[0], c[1])
			ref.s.Block(c[0], c[1])
		}
		b := budget.New(nil, time.Time{}, 0)
		got, ok := d.MinimumBudget(b)
		if b.Tripped() {
			t.Fatalf("round %d: tripped (%v) at a cap of %d nodes; the largest live root has %d",
				r, b.Cause(), 2*peak, peak)
		}
		want, wantOK := ref.minimum(nil)
		if ok != wantOK || !got.Equal(want) {
			t.Fatalf("round %d: diagram %v,%v; reference %v,%v", r, got, ok, want, wantOK)
		}
	}
}

// BenchmarkMinimumCEGAR replays a fixed ~100-round CEGAR sequence over 20
// variables on a fresh solver: block the round's cubes, then Minimum.
// Unlike hardInstance's all-positive vertex cover, the clauses are
// mixed-sign blocking cubes, as line 8 of Algorithm 1 sees them. nodes/op
// is the work one replay charges (minsat.search_nodes).
func BenchmarkMinimumCEGAR(b *testing.B) {
	const vars = 20
	seq := cegarRounds(vars, 100, 1)
	replay := func(rec obs.Recorder) {
		s := New(vars)
		s.Instrument(rec)
		for _, round := range seq {
			for _, c := range round {
				s.Block(c[0], c[1])
			}
			s.Minimum()
		}
	}
	agg := obs.NewAgg()
	replay(agg)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		replay(nil)
	}
	b.ReportMetric(float64(len(seq)), "rounds")
	b.ReportMetric(float64(agg.Counter(obs.MinsatSearchNodes)), "nodes/op")
}
