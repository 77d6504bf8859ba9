package core

import (
	"errors"
	"testing"
	"time"

	"tracer/internal/budget"
	"tracer/internal/lang"
	"tracer/internal/uset"
)

// mockProblem simulates a parametric analysis over n boolean parameters:
// the query is provable exactly by abstractions that include all of need;
// the backward meta-analysis eliminates, per failing run, the cube "p with
// the first missing needed parameter off".
type mockProblem struct {
	n        int
	need     uset.Set
	provable bool
	runs     []uset.Set
}

func (m *mockProblem) NumParams() int { return m.n }

func (m *mockProblem) Forward(_ *budget.Budget, p uset.Set) Outcome {
	m.runs = append(m.runs, p)
	if m.provable && m.need.SubsetOf(p) {
		return Outcome{Proved: true, Steps: 1}
	}
	return Outcome{Trace: lang.Trace{lang.MoveNull{V: "x"}}, Steps: 1}
}

func (m *mockProblem) Backward(_ *budget.Budget, p uset.Set, t lang.Trace) []ParamCube {
	if !m.provable {
		// Nothing can prove it: eliminate everything matching p exactly on
		// the needed bits... the strongest sound statement is "everything".
		return []ParamCube{{}}
	}
	for _, v := range m.need.Elems() {
		if !p.Has(v) {
			// Every abstraction missing v fails.
			return []ParamCube{{Neg: uset.New(v)}}
		}
	}
	return nil
}

// TestSolveFindsMinimum: the cheapest abstraction is exactly the needed
// set, reached by learning one parameter per iteration.
func TestSolveFindsMinimum(t *testing.T) {
	need := uset.New(1, 3)
	m := &mockProblem{n: 6, need: need, provable: true}
	res, err := Solve(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Proved {
		t.Fatalf("status = %v", res.Status)
	}
	if !res.Abstraction.Equal(need) {
		t.Fatalf("abstraction = %v, want %v", res.Abstraction, need)
	}
	if res.Iterations != 3 {
		t.Fatalf("iterations = %d, want 3 ({} → {1} → {1,3})", res.Iterations)
	}
	// The first run must be the cheapest abstraction (empty set).
	if !m.runs[0].Empty() {
		t.Fatalf("first run used %v, want {}", m.runs[0])
	}
}

// TestSolveImpossible: blocking the full space yields Impossible.
func TestSolveImpossible(t *testing.T) {
	m := &mockProblem{n: 4, provable: false}
	res, err := Solve(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Impossible {
		t.Fatalf("status = %v", res.Status)
	}
	if res.Iterations != 1 {
		t.Fatalf("iterations = %d, want 1", res.Iterations)
	}
}

// noProgress is a (deliberately broken) problem whose meta-analysis fails
// to eliminate the current abstraction; Solve must refuse to loop.
type noProgress struct{ mockProblem }

func (n *noProgress) Backward(_ *budget.Budget, p uset.Set, t lang.Trace) []ParamCube {
	return []ParamCube{{Pos: uset.New(63)}} // never covers small p
}

func TestSolveDetectsNoProgress(t *testing.T) {
	m := &noProgress{mockProblem{n: 64, need: uset.New(0), provable: true}}
	_, err := Solve(m, Options{})
	if !errors.Is(err, ErrNoProgress) {
		t.Fatalf("err = %v, want ErrNoProgress", err)
	}
}

// slowProblem never proves and always eliminates only the current point,
// exercising iteration caps and timeouts.
type slowProblem struct{ n int }

func (s *slowProblem) NumParams() int { return s.n }
func (s *slowProblem) Forward(_ *budget.Budget, p uset.Set) Outcome {
	return Outcome{Trace: lang.Trace{lang.MoveNull{V: "x"}}}
}
func (s *slowProblem) Backward(_ *budget.Budget, p uset.Set, t lang.Trace) []ParamCube {
	var neg uset.Set
	for v := 0; v < s.n; v++ {
		if !p.Has(v) {
			neg = neg.Add(v)
		}
	}
	return []ParamCube{{Pos: p, Neg: neg}} // blocks exactly p
}

func TestSolveIterationCap(t *testing.T) {
	res, err := Solve(&slowProblem{n: 10}, Options{MaxIters: 7})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Exhausted || res.Iterations != 7 || res.Tripped {
		t.Fatalf("status = %v after %d iterations (tripped %v), want exhausted at the cap", res.Status, res.Iterations, res.Tripped)
	}
	// The capped iteration's failing run is not analyzed backward: each of
	// the first six runs blocked one abstraction, the seventh none.
	if res.Clauses != 6 {
		t.Fatalf("clauses = %d, want 6", res.Clauses)
	}
}

func TestSolveTimeout(t *testing.T) {
	res, err := Solve(&slowProblem{n: 16}, Options{Timeout: time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Exhausted || !res.Tripped {
		t.Fatalf("status = %v, tripped = %v, want exhausted by the trip", res.Status, res.Tripped)
	}
}

// TestParamCubeContains covers the cube membership used for progress
// detection.
func TestParamCubeContains(t *testing.T) {
	c := ParamCube{Pos: uset.New(1), Neg: uset.New(2)}
	cases := []struct {
		p    uset.Set
		want bool
	}{
		{uset.New(1), true},
		{uset.New(1, 3), true},
		{uset.New(1, 2), false},
		{nil, false},
	}
	for _, tc := range cases {
		if got := c.Contains(tc.p); got != tc.want {
			t.Errorf("Contains(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
}

// ---------- batch driver ----------

// mockBatch wraps several mockProblems sharing a parameter space.
type mockBatch struct {
	problems []*mockProblem
	runs     int
}

func (b *mockBatch) NumParams() int  { return b.problems[0].n }
func (b *mockBatch) NumQueries() int { return len(b.problems) }

type mockBatchRun struct {
	b *mockBatch
	p uset.Set
}

func (b *mockBatch) RunForward(_ *budget.Budget, p uset.Set) BatchRun {
	b.runs++
	return &mockBatchRun{b, p}
}

func (r *mockBatchRun) Check(q int) (bool, lang.Trace) {
	out := r.b.problems[q].Forward(nil, r.p)
	return out.Proved, out.Trace
}

func (r *mockBatchRun) Steps() int { return 1 }

func (b *mockBatch) Backward(bud *budget.Budget, q int, p uset.Set, t lang.Trace) []ParamCube {
	return b.problems[q].Backward(bud, p, t)
}

// TestSolveBatchMatchesIndividual: batch resolution returns the same
// statuses and abstractions as per-query Solve, while sharing runs.
func TestSolveBatchMatchesIndividual(t *testing.T) {
	mk := func() *mockBatch {
		return &mockBatch{problems: []*mockProblem{
			{n: 8, need: uset.New(0), provable: true},
			{n: 8, need: uset.New(0), provable: true}, // same group as above
			{n: 8, need: uset.New(2, 4), provable: true},
			{n: 8, provable: false},
		}}
	}
	batch := mk()
	res, err := SolveBatch(batch, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for q, pr := range mk().problems {
		want, err := Solve(pr, Options{})
		if err != nil {
			t.Fatal(err)
		}
		got := res.Results[q]
		if got.Status != want.Status {
			t.Errorf("query %d: status %v, want %v", q, got.Status, want.Status)
		}
		if want.Status == Proved && !got.Abstraction.Equal(want.Abstraction) {
			t.Errorf("query %d: abstraction %v, want %v", q, got.Abstraction, want.Abstraction)
		}
	}
	// Queries 0 and 1 share every clause set, so the batch must use fewer
	// forward runs than the 2+2+3+1 = 8 individual ones.
	if batch.runs >= 8 {
		t.Errorf("batch used %d forward runs, expected sharing to reduce below 8", batch.runs)
	}
	if res.Stats.ForwardRuns != batch.runs {
		t.Errorf("stats.ForwardRuns = %d, want %d", res.Stats.ForwardRuns, batch.runs)
	}
}

// TestSolveBatchExhaustion: the per-query iteration cap applies.
func TestSolveBatchExhaustion(t *testing.T) {
	b := &mockBatch{problems: []*mockProblem{{n: 6, need: uset.New(0, 1, 2, 3, 4), provable: true}}}
	res, err := SolveBatch(b, Options{MaxIters: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Results[0].Status != Exhausted {
		t.Fatalf("status = %v, want exhausted", res.Results[0].Status)
	}
}

// BenchmarkSolveLoop times the loop's own overhead: a mock problem whose
// forward and backward phases are nearly free, solved in 10 iterations (one
// needed parameter learned per iteration, then the proof).
func BenchmarkSolveLoop(b *testing.B) {
	need := uset.New(1, 2, 3, 4, 5, 6, 7, 8, 9)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := Solve(&mockProblem{n: 16, need: need, provable: true}, Options{})
		if err != nil || res.Iterations != 10 {
			b.Fatalf("%v after %d iterations, err %v", res.Status, res.Iterations, err)
		}
	}
}
