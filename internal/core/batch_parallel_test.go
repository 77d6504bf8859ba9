package core

import (
	"reflect"
	"sync"
	"testing"
	"time"

	"tracer/internal/budget"
	"tracer/internal/lang"
	"tracer/internal/obs"
	"tracer/internal/uset"
)

// parBatch is a concurrency-safe mockBatch: RunForward may be called from
// the scheduler's worker pool, so the run counter is locked.
type parBatch struct {
	problems []*mockProblem

	mu   sync.Mutex
	runs int
}

func (b *parBatch) NumParams() int  { return b.problems[0].n }
func (b *parBatch) NumQueries() int { return len(b.problems) }

func (b *parBatch) RunForward(_ *budget.Budget, p uset.Set) BatchRun {
	b.mu.Lock()
	b.runs++
	b.mu.Unlock()
	return &parRun{b: b, p: p}
}

func (b *parBatch) Backward(bud *budget.Budget, q int, p uset.Set, t lang.Trace) []ParamCube {
	return b.problems[q].Backward(bud, p, t)
}

type parRun struct {
	b *parBatch
	p uset.Set
}

func (r *parRun) Check(q int) (bool, lang.Trace) {
	// Distinct queries own distinct problems, so no lock is needed here —
	// the scheduler never checks the same query twice concurrently.
	out := r.b.problems[q].Forward(nil, r.p)
	return out.Proved, out.Trace
}

func (r *parRun) Steps() int { return 1 }

// TestSolveBatchWorkerDeterminism: Results, BatchStats, and the recorded
// event stream are identical for every worker count (the satellite
// determinism requirement; runs under the tier-1 -race gate).
func TestSolveBatchWorkerDeterminism(t *testing.T) {
	run := func(workers int) ([]Result, BatchStats, []obs.Event) {
		b := &parBatch{problems: []*mockProblem{
			{n: 10, need: uset.New(0), provable: true},
			{n: 10, need: uset.New(0), provable: true},
			{n: 10, need: uset.New(1, 5), provable: true},
			{n: 10, need: uset.New(2, 4), provable: true},
			{n: 10, need: uset.New(3), provable: true},
			{n: 10, need: uset.New(2, 4, 6), provable: true},
			{n: 10, provable: false},
			{n: 10, need: uset.New(7, 8, 9), provable: true},
		}}
		cap := obs.NewCapture()
		res, err := SolveBatch(b, Options{Workers: workers, Recorder: cap})
		if err != nil {
			t.Fatal(err)
		}
		return res.Results, res.Stats, cap.Events()
	}
	baseRes, baseStats, baseEvents := run(1)
	for _, w := range []int{4, 8} {
		gotRes, gotStats, gotEvents := run(w)
		if !reflect.DeepEqual(gotRes, baseRes) {
			t.Errorf("Workers=%d: Results differ from sequential:\n%+v\nvs\n%+v", w, gotRes, baseRes)
		}
		if gotStats != baseStats {
			t.Errorf("Workers=%d: Stats = %+v, want %+v", w, gotStats, baseStats)
		}
		if len(gotEvents) != len(baseEvents) {
			t.Fatalf("Workers=%d: %d events, want %d", w, len(gotEvents), len(baseEvents))
		}
		for i := range gotEvents {
			ev, base := gotEvents[i], baseEvents[i]
			ev.WallNS, base.WallNS = 0, 0 // wall times legitimately differ
			if ev != base {
				t.Fatalf("Workers=%d: event %d differs: %+v vs %+v", w, i, ev, base)
			}
		}
	}
}

// slowBatch never proves anything and always eliminates exactly the current
// abstraction, exercising the batch wall-clock cap.
type slowBatch struct{ n, q int }

func (b *slowBatch) NumParams() int                                   { return b.n }
func (b *slowBatch) NumQueries() int                                  { return b.q }
func (b *slowBatch) RunForward(_ *budget.Budget, p uset.Set) BatchRun { return slowBatchRun{} }

func (b *slowBatch) Backward(_ *budget.Budget, q int, p uset.Set, t lang.Trace) []ParamCube {
	var neg uset.Set
	for v := 0; v < b.n; v++ {
		if !p.Has(v) {
			neg = neg.Add(v)
		}
	}
	return []ParamCube{{Pos: p, Neg: neg}} // blocks exactly p
}

type slowBatchRun struct{}

func (slowBatchRun) Check(q int) (bool, lang.Trace) {
	return false, lang.Trace{lang.MoveNull{V: "x"}}
}
func (slowBatchRun) Steps() int { return 0 }

// TestSolveBatchTimeout mirrors TestSolveTimeout: an expired wall-clock
// budget lands every unresolved query in the Exhausted bucket.
func TestSolveBatchTimeout(t *testing.T) {
	b := &slowBatch{n: 16, q: 3}
	res, err := SolveBatch(b, Options{Timeout: time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	for q, r := range res.Results {
		if r.Status != Exhausted || !r.Tripped {
			t.Errorf("query %d: status = %v, tripped = %v, want exhausted by the trip", q, r.Status, r.Tripped)
		}
	}
	if res.Stats.ForwardRuns != 0 {
		t.Errorf("ForwardRuns = %d, want 0 (budget expired before any round)", res.Stats.ForwardRuns)
	}
}

// hitBatch is scripted so that different groups converge on the same
// minimum abstraction, both within one round and across rounds:
//
//	q0: {} fails learning (x0)∧(x1)       → round 2 picks {0,1}, proved
//	q1: {} fails learning (x1)            → round 2 picks {1}, fails
//	    {1} fails learning (¬x1 ∨ x0)     → round 3 picks {0,1}: a memo hit
//	                                         on q0's round-2 run
type hitBatch struct {
	mu   sync.Mutex
	runs int
}

func (b *hitBatch) NumParams() int  { return 4 }
func (b *hitBatch) NumQueries() int { return 2 }

func (b *hitBatch) RunForward(_ *budget.Budget, p uset.Set) BatchRun {
	b.mu.Lock()
	b.runs++
	b.mu.Unlock()
	return hitRun{p: p}
}

func (b *hitBatch) Backward(_ *budget.Budget, q int, p uset.Set, t lang.Trace) []ParamCube {
	if p.Empty() {
		if q == 0 {
			return []ParamCube{{Neg: uset.New(0)}, {Neg: uset.New(1)}}
		}
		return []ParamCube{{Neg: uset.New(1)}}
	}
	return []ParamCube{{Pos: uset.New(1), Neg: uset.New(0)}}
}

type hitRun struct{ p uset.Set }

func (r hitRun) Check(q int) (bool, lang.Trace) {
	if r.p.Has(0) && r.p.Has(1) {
		return true, nil
	}
	return false, lang.Trace{lang.MoveNull{V: "x"}}
}
func (r hitRun) Steps() int { return 1 }

// TestSolveBatchForwardCache: the abstraction-keyed memo serves repeated
// minimum abstractions without re-running the forward analysis, and the
// hit/miss counters (stats and obs) record it.
func TestSolveBatchForwardCache(t *testing.T) {
	b := &hitBatch{}
	agg := obs.NewAgg()
	res, err := SolveBatch(b, Options{Recorder: agg})
	if err != nil {
		t.Fatal(err)
	}
	for q, r := range res.Results {
		if r.Status != Proved {
			t.Fatalf("query %d: status = %v, want proved", q, r.Status)
		}
		if !r.Abstraction.Equal(uset.New(0, 1)) {
			t.Fatalf("query %d: abstraction = %v, want {0,1}", q, r.Abstraction)
		}
	}
	// Rounds: {} | {0,1}, {1} | {0,1} again — four forward phases, but the
	// last is served by the memo, so only three executions.
	if b.runs != 3 {
		t.Errorf("forward executions = %d, want 3", b.runs)
	}
	if res.Stats.ForwardRuns != 4 {
		t.Errorf("ForwardRuns = %d, want 4 phases", res.Stats.ForwardRuns)
	}
	if res.Stats.FwdCacheHits != 1 || res.Stats.FwdCacheMisses != 3 {
		t.Errorf("cache hits/misses = %d/%d, want 1/3", res.Stats.FwdCacheHits, res.Stats.FwdCacheMisses)
	}
	// The memoized run's steps were already charged in its first round:
	// each execution contributes exactly one step, reuse contributes none.
	if res.Stats.TotalSteps != 3 {
		t.Errorf("TotalSteps = %d, want 3", res.Stats.TotalSteps)
	}
	if agg.Counter(obs.BatchFwdCacheHit) != 1 || agg.Counter(obs.BatchFwdCacheMiss) != 3 {
		t.Errorf("obs counters hit/miss = %d/%d, want 1/3",
			agg.Counter(obs.BatchFwdCacheHit), agg.Counter(obs.BatchFwdCacheMiss))
	}
}
