package minsat

import (
	"math/rand"
	"testing"
	"time"

	"tracer/internal/budget"
	"tracer/internal/obs"
	"tracer/internal/uset"
)

// freshMinimum rebuilds a solver from scratch over the same clause set and
// solves it, so every differential test below compares the incremental
// answer against one computed with no warm state at all.
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
	rng := rand.New(rand.NewSource(41))
	const n = 8
	for trial := 0; trial < 120; trial++ {
		s := New(n)
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
// round blocks the model just returned, so the cached model never survives
// and the warm path exercised is the floor-bounded re-search.
func TestIncrementalBlocksOwnModel(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const n = 9
	for trial := 0; trial < 40; trial++ {
		s := New(n)
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

// TestIncrementalCloneDivergence: clones inherit warm state but diverge
// independently; both lineages must keep matching fresh solvers.
func TestIncrementalCloneDivergence(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	const n = 8
	for trial := 0; trial < 60; trial++ {
		s := New(n)
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
// corrupt the warm state — the next unbudgeted call still answers exactly
// like a fresh solver.
func TestIncrementalAbortKeepsWarmState(t *testing.T) {
	s := hardInstance(40)
	if _, ok := s.Minimum(); !ok {
		t.Fatal("hard instance unexpectedly unsat")
	}
	// Block the cached model so the next solve cannot take the zero-search
	// path, then abort it immediately.
	m, _ := s.Minimum()
	s.Block(m, nil)
	b := budget.New(nil, time.Now().Add(-time.Second), 0)
	if _, ok := s.MinimumBudget(b); ok {
		t.Fatal("aborted search returned a model")
	}
	got, ok := s.Minimum()
	want, wantOK := freshMinimum(s)
	if ok != wantOK || !got.Equal(want) {
		t.Fatalf("post-abort minimum %v,%v; fresh %v,%v", got, ok, want, wantOK)
	}
}

// TestIncrementalReuseCounter: the zero-search paths — unchanged clause
// set, still-satisfied model, sticky UNSAT — all count on
// minsat.incremental_reuse; a genuine re-search does not.
func TestIncrementalReuseCounter(t *testing.T) {
	agg := obs.NewAgg()
	s := New(6)
	s.Instrument(agg)
	s.Add(Clause{{Var: 0}, {Var: 1}})
	s.Minimum() // cold: search
	if n := agg.Counter(obs.MinsatIncrementalReuse); n != 0 {
		t.Fatalf("cold solve counted %d reuses", n)
	}
	s.Minimum() // unchanged clause set
	if n := agg.Counter(obs.MinsatIncrementalReuse); n != 1 {
		t.Fatalf("unchanged-set reuse = %d, want 1", n)
	}
	s.Add(Clause{{Var: 2}, {Var: 1}}) // satisfied by the cached model {1}
	s.Minimum()
	if n := agg.Counter(obs.MinsatIncrementalReuse); n != 2 {
		t.Fatalf("model-still-satisfies reuse = %d, want 2", n)
	}
	s.Add(Clause{{Var: 1, Neg: true}}) // blocks the cached model
	s.Minimum()
	if n := agg.Counter(obs.MinsatIncrementalReuse); n != 2 {
		t.Fatalf("re-search counted as reuse: %d", n)
	}
	s.Block(nil, nil) // empty clause: UNSAT
	s.Minimum()       // proves UNSAT (not a reuse: first detection)
	s.Minimum()       // sticky UNSAT: reuse
	if n := agg.Counter(obs.MinsatIncrementalReuse); n != 3 {
		t.Fatalf("sticky-unsat reuse = %d, want 3", n)
	}
}

// BenchmarkMinimumIncremental measures the CEGAR-shaped resolve loop —
// solve, block the returned model, solve again — with warm state ("warm")
// against rebuilding the solver from scratch each round ("fresh").
func BenchmarkMinimumIncremental(b *testing.B) {
	const vars, rounds = 36, 12
	run := func(b *testing.B, fresh bool) {
		for i := 0; i < b.N; i++ {
			s := hardInstance(vars)
			for r := 0; r < rounds; r++ {
				m, ok := s.Minimum()
				if !ok {
					break
				}
				s.Block(m, nil)
				if fresh {
					s = s.Clone()
					s.eng = nil // discard the warm engine: next solve is cold
				}
			}
		}
	}
	b.Run("warm", func(b *testing.B) { run(b, false) })
	b.Run("fresh", func(b *testing.B) { run(b, true) })
}

// cegarRounds records the blocking cubes of a CEGAR run that never proves
// its query, the shape an exhausted thread-escape query leaves in minsat:
// each round learns one or two mixed-sign cubes that contain the current
// minimum model (most of its variables on, two to seven variables outside
// it off), so every round forces a re-search. It stops after `rounds`
// rounds or at UNSAT, and returns the cubes of each round as (pos, neg)
// pairs plus the search nodes one replay visits.
func cegarRounds(vars, rounds int, seed int64) ([][][2]uset.Set, int64) {
	rng := rand.New(rand.NewSource(seed))
	agg := obs.NewAgg()
	s := New(vars)
	s.Instrument(agg)
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
	return seq, agg.Counter(obs.MinsatSearchNodes)
}

// BenchmarkMinimumCEGAR replays a fixed ~100-round CEGAR sequence over 20
// variables on a fresh solver: block the round's cubes, then Minimum. Unlike
// BenchmarkMinimumIncremental's all-positive vertex cover, the clauses are
// mixed-sign blocking cubes, as line 8 of Algorithm 1 sees them.
func BenchmarkMinimumCEGAR(b *testing.B) {
	const vars = 20
	seq, nodes := cegarRounds(vars, 100, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := New(vars)
		for _, round := range seq {
			for _, c := range round {
				s.Block(c[0], c[1])
			}
			s.Minimum()
		}
	}
	b.ReportMetric(float64(len(seq)), "rounds")
	b.ReportMetric(float64(nodes), "nodes/op")
}
