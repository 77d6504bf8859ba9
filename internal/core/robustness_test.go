package core

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"tracer/internal/budget"
	"tracer/internal/faultinject"
	"tracer/internal/lang"
	"tracer/internal/obs"
	"tracer/internal/uset"
)

// ---------- satellite: no-progress resolves Failed with a terminal event ----------

// TestSolveNoProgressEvent: the no-progress exit still returns ErrNoProgress
// but now also resolves the query Failed, with exactly one terminal
// query_resolved event — callers watching the event stream see the query
// close instead of vanishing.
func TestSolveNoProgressEvent(t *testing.T) {
	cap := obs.NewCapture()
	m := &noProgress{mockProblem{n: 64, need: uset.New(0), provable: true}}
	res, err := Solve(m, Options{Recorder: cap})
	if !errors.Is(err, ErrNoProgress) {
		t.Fatalf("err = %v, want ErrNoProgress", err)
	}
	if res.Status != Failed {
		t.Fatalf("status = %v, want failed", res.Status)
	}
	if !strings.Contains(res.Failure, "did not eliminate") {
		t.Fatalf("Failure = %q, want the no-progress message", res.Failure)
	}
	finals := cap.Filter(obs.QueryResolved)
	if len(finals) != 1 || finals[0].Status != "failed" {
		t.Fatalf("query_resolved events = %+v, want exactly one with status failed", finals)
	}
	if finals[0].Iter != res.Iterations || finals[0].Clauses != res.Clauses {
		t.Fatalf("terminal event %+v does not match result %+v", finals[0], res)
	}
}

// ---------- mid-phase deadline enforcement ----------

// spin busy-polls the budget until it trips; the failsafe deadline keeps a
// broken budget from hanging the test binary rather than failing it.
func spin(b *budget.Budget) {
	failsafe := time.Now().Add(10 * time.Second)
	for b.Poll() {
		if time.Now().After(failsafe) {
			return
		}
	}
}

// spinProblem spins inside one phase until the budget trips; without a
// budget each phase would run ~100× longer than the test's deadline.
type spinProblem struct{ phase string }

func (s *spinProblem) NumParams() int { return 4 }

func (s *spinProblem) Forward(b *budget.Budget, p uset.Set) Outcome {
	if s.phase == "forward" {
		spin(b)
		return Outcome{Steps: int(b.Steps())} // partial: never a false Proved
	}
	return Outcome{Trace: lang.Trace{lang.MoveNull{V: "x"}}, Steps: 1}
}

func (s *spinProblem) Backward(b *budget.Budget, p uset.Set, t lang.Trace) []ParamCube {
	if s.phase == "backward" {
		spin(b)
		return nil // truncated walk: possibly-empty cube set
	}
	var neg uset.Set
	for v := 0; v < s.NumParams(); v++ {
		if !p.Has(v) {
			neg = neg.Add(v)
		}
	}
	return []ParamCube{{Pos: p, Neg: neg}} // blocks exactly p
}

// hardMinProblem front-loads a random vertex-cover clause set (as in
// internal/minsat's budget tests) so the second iteration's diagram of the
// viable set explodes: from n = 60 on it passes minsat's node cap, and only
// the budget polled per diagram node can stop it sooner.
type hardMinProblem struct{ n int }

func (h *hardMinProblem) NumParams() int { return h.n }

func (h *hardMinProblem) Forward(b *budget.Budget, p uset.Set) Outcome {
	return Outcome{Trace: lang.Trace{lang.MoveNull{V: "x"}}, Steps: 1}
}

func (h *hardMinProblem) Backward(b *budget.Budget, p uset.Set, t lang.Trace) []ParamCube {
	var cubes []ParamCube
	// Deterministic pseudo-random ~30% of the pairs (i, j): each cube
	// {Neg:{i,j}} blocks abstractions missing both, i.e. clause (xi ∨ xj).
	// The set covers p = {} (every cube has empty Pos).
	rng := uint64(12345)
	for i := 0; i < h.n; i++ {
		for j := i + 1; j < h.n; j++ {
			rng = rng*6364136223846793005 + 1442695040888963407
			if (rng>>33)%100 < 30 {
				cubes = append(cubes, ParamCube{Neg: uset.New(i, j)})
			}
		}
	}
	return cubes
}

// TestSolveDeadlineMidPhase: with a deadline set, Solve returns Exhausted
// within a bounded wall time even when a single phase — the forward run, the
// backward walk, or the minimum search — would on its own run far past the
// deadline, and it emits one budget_trip plus one terminal query_resolved.
func TestSolveDeadlineMidPhase(t *testing.T) {
	cases := []struct {
		name string
		pr   Problem
	}{
		{"forward", &spinProblem{phase: "forward"}},
		{"backward", &spinProblem{phase: "backward"}},
		// At n = 140 the diagram takes about 0.4 s to pass the node cap,
		// ten times the 40ms deadline, so the deadline trips mid-build
		// rather than the cap.
		{"minimum", &hardMinProblem{n: 140}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cap := obs.NewCapture()
			start := time.Now()
			res, err := Solve(tc.pr, Options{Timeout: 40 * time.Millisecond, Recorder: cap})
			elapsed := time.Since(start)
			if err != nil {
				t.Fatal(err)
			}
			if res.Status != Exhausted {
				t.Fatalf("status = %v, want exhausted", res.Status)
			}
			// Generous CI bound; the un-budgeted phase runs for ~10s.
			if elapsed > 5*time.Second {
				t.Fatalf("solve took %v with a 40ms deadline", elapsed)
			}
			if trips := cap.Filter(obs.BudgetTrip); len(trips) != 1 || trips[0].Name != "deadline" {
				t.Fatalf("budget_trip events = %+v, want one with cause deadline", trips)
			}
			finals := cap.Filter(obs.QueryResolved)
			if len(finals) != 1 || finals[0].Status != "exhausted" {
				t.Fatalf("query_resolved events = %+v", finals)
			}
		})
	}
}

// hardMinBatch poses hardMinProblem as a batch of nq queries that every
// forward run fails. Query q also learns the unit cube {Neg: {q}}, so after
// the first round the queries sit in nq groups, and their diagrams pass the
// node cap concurrently.
type hardMinBatch struct {
	h  hardMinProblem
	nq int
}

func (b *hardMinBatch) NumParams() int  { return b.h.n }
func (b *hardMinBatch) NumQueries() int { return b.nq }

func (b *hardMinBatch) RunForward(_ *budget.Budget, _ uset.Set) BatchRun { return pollRun{} }

func (b *hardMinBatch) Backward(bud *budget.Budget, q int, p uset.Set, t lang.Trace) []ParamCube {
	return append(b.h.Backward(bud, p, t), ParamCube{Neg: uset.New(q)})
}

// TestSolveSpaceTrip: a diagram past minsat's node cap trips the solve's
// budget even when nothing bounds the solve, so every query ends Exhausted
// with Tripped set and the solve emits one budget_trip event naming cause
// space; no verdict is read off a diagram that did not fit. A 2-worker
// batch whose two groups pass the cap at once does the same.
func TestSolveSpaceTrip(t *testing.T) {
	check := func(t *testing.T, rs []Result, cap *obs.Capture) {
		t.Helper()
		for q, r := range rs {
			if r.Status != Exhausted || !r.Tripped {
				t.Fatalf("query %d: %v (tripped %v), want exhausted by a trip", q, r.Status, r.Tripped)
			}
		}
		if trips := cap.Filter(obs.BudgetTrip); len(trips) != 1 || trips[0].Name != "space" {
			t.Fatalf("budget_trip events = %+v, want one with cause space", trips)
		}
		if finals := cap.Filter(obs.QueryResolved); len(finals) != len(rs) {
			t.Fatalf("query_resolved events = %d, want %d", len(finals), len(rs))
		}
	}
	t.Run("solve", func(t *testing.T) {
		cap := obs.NewCapture()
		res, err := Solve(&hardMinProblem{n: 60}, Options{Recorder: cap})
		if err != nil {
			t.Fatal(err)
		}
		check(t, []Result{res}, cap)
	})
	t.Run("batch", func(t *testing.T) {
		cap := obs.NewCapture()
		res, err := SolveBatch(&hardMinBatch{h: hardMinProblem{n: 60}, nq: 2},
			Options{Workers: 2, Recorder: cap})
		if err != nil {
			t.Fatal(err)
		}
		check(t, res.Results, cap)
		if res.Stats.PeakGroups != 2 {
			t.Fatalf("peak groups = %d, want both queries' groups past the cap in one round",
				res.Stats.PeakGroups)
		}
	})
}

// TestSolveContextCancelMidPhase: cancellation lands mid-forward-run and the
// solve unwinds cooperatively.
func TestSolveContextCancelMidPhase(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	res, err := Solve(&spinProblem{phase: "forward"}, Options{Context: ctx})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Exhausted {
		t.Fatalf("status = %v, want exhausted", res.Status)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("solve took %v after a ~20ms cancellation", elapsed)
	}
}

// TestSolveMaxSteps: the machine-independent step quota trips mid-phase and
// the partial forward steps are reported.
func TestSolveMaxSteps(t *testing.T) {
	res, err := Solve(&spinProblem{phase: "forward"}, Options{MaxSteps: 500})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Exhausted {
		t.Fatalf("status = %v, want exhausted", res.Status)
	}
	if res.ForwardSteps == 0 {
		t.Fatal("ForwardSteps = 0, want the partial steps accumulated before the trip")
	}
}

// ---------- single-query panic isolation ----------

// TestSolvePanicIsolation: a panic in any phase resolves Failed with the
// cause and stack in the Result, a panic_recovered event, one terminal
// query_resolved, and a nil error.
func TestSolvePanicIsolation(t *testing.T) {
	hooks := []struct {
		site faultinject.Site
		key  string
	}{
		{faultinject.SiteMinimum, "r0.g0"},
		{faultinject.SiteForward, "r0."}, // the first abstraction is {}
		{faultinject.SiteBackward, "r0.q0"},
	}
	for _, h := range hooks {
		t.Run(string(h.site), func(t *testing.T) {
			in := faultinject.New()
			in.PanicAt(h.site, h.key)
			cap := obs.NewCapture()
			m := &mockProblem{n: 6, need: uset.New(1), provable: true}
			res, err := Solve(m, Options{Inject: in, Recorder: cap})
			if err != nil {
				t.Fatalf("err = %v, want nil (panics must not escape as errors)", err)
			}
			if res.Status != Failed {
				t.Fatalf("status = %v, want failed", res.Status)
			}
			if !strings.Contains(res.Failure, "injected panic") {
				t.Fatalf("Failure = %q", res.Failure)
			}
			if res.Stack == "" {
				t.Fatal("Stack is empty, want the recovered goroutine stack")
			}
			if got := cap.Filter(obs.PanicRecovered); len(got) != 1 {
				t.Fatalf("panic_recovered events = %d, want 1", len(got))
			}
			finals := cap.Filter(obs.QueryResolved)
			if len(finals) != 1 || finals[0].Status != "failed" {
				t.Fatalf("query_resolved events = %+v", finals)
			}
		})
	}
}

// ---------- satellite: batch partial stats on a whole-batch budget trip ----------

// pollBatch's forward run charges ten budget polls per execution and reports
// seven steps, so a small MaxSteps trips deterministically inside the second
// round's forward phase.
type pollBatch struct{}

func (pollBatch) NumParams() int  { return 4 }
func (pollBatch) NumQueries() int { return 1 }

func (pollBatch) RunForward(b *budget.Budget, p uset.Set) BatchRun {
	for i := 0; i < 10; i++ {
		b.Poll()
	}
	return pollRun{}
}

func (pollBatch) Backward(_ *budget.Budget, q int, p uset.Set, t lang.Trace) []ParamCube {
	return []ParamCube{{Neg: uset.New(0)}}
}

type pollRun struct{}

func (pollRun) Check(q int) (bool, lang.Trace) {
	return false, lang.Trace{lang.MoveNull{V: "x"}}
}
func (pollRun) Steps() int { return 7 }

// TestSolveBatchPartialStats: a mid-batch budget trip resolves the
// unresolved queries Exhausted with their *accumulated* stats — iterations,
// clauses, and forward steps from the rounds that did run — and the terminal
// query_resolved event carries the same totals.
func TestSolveBatchPartialStats(t *testing.T) {
	cap := obs.NewCapture()
	res, err := SolveBatch(pollBatch{}, Options{MaxSteps: 15, Recorder: cap})
	if err != nil {
		t.Fatal(err)
	}
	r := res.Results[0]
	if r.Status != Exhausted {
		t.Fatalf("status = %v, want exhausted", r.Status)
	}
	if r.Iterations == 0 || r.Clauses == 0 || r.ForwardSteps == 0 {
		t.Fatalf("partial stats zeroed: %+v", r)
	}
	if trips := cap.Filter(obs.BudgetTrip); len(trips) != 1 || trips[0].Name != "steps" {
		t.Fatalf("budget_trip events = %+v, want one with cause steps", trips)
	}
	finals := cap.Filter(obs.QueryResolved)
	if len(finals) != 1 {
		t.Fatalf("query_resolved events = %d, want 1", len(finals))
	}
	e := finals[0]
	if e.Status != "exhausted" || e.Iter != r.Iterations || e.Clauses != r.Clauses || e.Steps != r.ForwardSteps {
		t.Fatalf("terminal event %+v does not reconcile with result %+v", e, r)
	}
	// The trip lands in round 2's forward phase: both phases are charged.
	if res.Stats.ForwardRuns != 2 || res.Stats.Rounds != 2 {
		t.Fatalf("stats = %+v, want 2 rounds and 2 forward runs", res.Stats)
	}
}

// ---------- satellite: chaos determinism across worker counts ----------

// chaosBatch resolves in two rounds when fault-free: round 0 runs every
// query under p = {} and learns clause (x_q) for query q, splitting the root
// group into singletons; round 1 proves query q under p = {q}. Group i in
// round 1's signature order is exactly query i, which makes hook keys easy
// to aim at one query.
type chaosBatch struct{ nq int }

func (b *chaosBatch) NumParams() int  { return b.nq }
func (b *chaosBatch) NumQueries() int { return b.nq }

func (b *chaosBatch) RunForward(_ *budget.Budget, p uset.Set) BatchRun { return chaosRun{p: p} }

func (b *chaosBatch) Backward(_ *budget.Budget, q int, p uset.Set, _ lang.Trace) []ParamCube {
	return []ParamCube{{Neg: uset.New(q)}}
}

type chaosRun struct{ p uset.Set }

func (r chaosRun) Check(q int) (bool, lang.Trace) {
	if r.p.Has(q) {
		return true, nil
	}
	return false, lang.Trace{lang.MoveNull{V: "x"}}
}
func (r chaosRun) Steps() int { return 1 }

// runChaos solves a 4-query chaosBatch with the injector built by mk,
// normalizing the nondeterministic fields (wall times in events, stacks in
// results) so the remainder can be compared byte-for-byte.
func runChaos(t *testing.T, workers int, mk func() *faultinject.Injector) ([]Result, []obs.Event) {
	t.Helper()
	cap := obs.NewCapture()
	res, err := SolveBatch(&chaosBatch{nq: 4}, Options{Workers: workers, Recorder: cap, Inject: mk()})
	if err != nil {
		t.Fatalf("Workers=%d: err = %v", workers, err)
	}
	results := append([]Result(nil), res.Results...)
	for i := range results {
		results[i].Stack = "" // stacks embed goroutine IDs
	}
	events := cap.Events()
	for i := range events {
		events[i].WallNS = 0
	}
	return results, events
}

// TestSolveBatchChaosDeterminism: a panic injected into each phase of the
// query-1 group fails exactly query 1, leaves every other query's verdict
// identical to the fault-free run, and produces byte-identical results and
// event streams for Workers 1, 2, and 4. A delay injection perturbs only
// timing. Runs under the tier-1 -race gate.
func TestSolveBatchChaosDeterminism(t *testing.T) {
	baseRes, _ := runChaos(t, 1, func() *faultinject.Injector { return nil })
	for q, r := range baseRes {
		if r.Status != Proved || !r.Abstraction.Equal(uset.New(q)) {
			t.Fatalf("fault-free baseline: query %d = %+v", q, r)
		}
	}

	cases := []struct {
		name string
		mk   func() *faultinject.Injector
		// failed lists the queries expected to resolve Failed.
		failed []int
	}{
		{"minimum-r1-g1", func() *faultinject.Injector {
			in := faultinject.New()
			in.PanicAt(faultinject.SiteMinimum, "r1.g1")
			return in
		}, []int{1}},
		{"forward-r1-p1", func() *faultinject.Injector {
			in := faultinject.New()
			in.PanicAt(faultinject.SiteForward, "r1.1")
			return in
		}, []int{1}},
		{"backward-r0-q1", func() *faultinject.Injector {
			in := faultinject.New()
			in.PanicAt(faultinject.SiteBackward, "r0.q1")
			return in
		}, []int{1}},
		{"delay-only", func() *faultinject.Injector {
			in := faultinject.New()
			in.DelayAt(faultinject.SiteForward, "r1.2", 2*time.Millisecond)
			return in
		}, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w1Res, w1Events := runChaos(t, 1, tc.mk)
			failed := map[int]bool{}
			for _, q := range tc.failed {
				failed[q] = true
			}
			for q, r := range w1Res {
				if failed[q] {
					if r.Status != Failed || !strings.Contains(r.Failure, "injected panic") {
						t.Fatalf("query %d = %+v, want failed by injection", q, r)
					}
					continue
				}
				if !reflect.DeepEqual(r, baseRes[q]) {
					t.Fatalf("unaffected query %d diverged from fault-free run:\n%+v\nvs\n%+v", q, r, baseRes[q])
				}
			}
			if len(tc.failed) > 0 {
				var recovered int
				for _, e := range w1Events {
					if e.Kind == obs.PanicRecovered {
						recovered++
					}
				}
				if recovered != len(tc.failed) {
					t.Fatalf("panic_recovered events = %d, want %d", recovered, len(tc.failed))
				}
			}
			for _, w := range []int{2, 4} {
				gotRes, gotEvents := runChaos(t, w, tc.mk)
				if !reflect.DeepEqual(gotRes, w1Res) {
					t.Fatalf("Workers=%d: results differ from Workers=1:\n%+v\nvs\n%+v", w, gotRes, w1Res)
				}
				if !reflect.DeepEqual(gotEvents, w1Events) {
					t.Fatalf("Workers=%d: event stream differs from Workers=1 (%d vs %d events)",
						w, len(gotEvents), len(w1Events))
				}
			}
		})
	}
}

// TestChaosSeedSweep: under seeded pseudo-random injection (panics, trips,
// and delays at ~25% of hook points), SolveBatch never crashes, every query
// lands in a valid terminal status, every Failed verdict is backed by a
// panic_recovered event, and a repeated run with the same seed at Workers=1
// is byte-identical. make chaos runs this over a seed sweep.
func TestChaosSeedSweep(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		for _, w := range []int{1, 4} {
			mk := func() *faultinject.Injector { return faultinject.Seeded(seed, 0.25) }
			res, events := runChaos(t, w, mk)
			failed := 0
			for q, r := range res {
				switch r.Status {
				case Proved, Impossible, Exhausted, Failed:
				default:
					t.Fatalf("seed %d Workers=%d: query %d has invalid status %v", seed, w, q, r.Status)
				}
				if r.Status == Failed {
					failed++
					if r.Failure == "" {
						t.Fatalf("seed %d Workers=%d: query %d Failed without a cause", seed, w, q)
					}
				}
			}
			recovered := 0
			for _, e := range events {
				if e.Kind == obs.PanicRecovered {
					recovered++
				}
			}
			if failed > 0 && recovered == 0 {
				t.Fatalf("seed %d Workers=%d: %d Failed queries but no panic_recovered events", seed, w, failed)
			}
			if w == 1 {
				res2, events2 := runChaos(t, 1, mk)
				if !reflect.DeepEqual(res2, res) || !reflect.DeepEqual(events2, events) {
					t.Fatalf("seed %d: same-seed Workers=1 rerun diverged", seed)
				}
			}
		}
	}
}
