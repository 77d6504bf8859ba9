package core

import (
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
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

// lineBatch is a DeltaBatchProblem that records, per run, the abstraction
// of the donor it resumed (nil for a cold run). Query q is proved once p
// holds every parameter of its stages; a failing run learns one cube per
// missing parameter of the first unmet stage, plus the query's extra cubes.
// A donated run is marked consumed and panics if it is donated again or
// checked again, so a scheduler that reused a run would fail queries.
type lineBatch struct {
	n      int
	stages [][]uset.Set
	extra  [][]ParamCube

	mu     sync.Mutex
	donors map[string]*uset.Set // run abstraction key → donor abstraction
}

func (b *lineBatch) NumParams() int  { return b.n }
func (b *lineBatch) NumQueries() int { return len(b.stages) }

func (b *lineBatch) RunForward(_ *budget.Budget, p uset.Set) BatchRun {
	return b.record(p, nil)
}

func (b *lineBatch) RunForwardFrom(_ *budget.Budget, p uset.Set, donor BatchRun, donorP uset.Set) BatchRun {
	d := donor.(*lineRun)
	if !d.p.Equal(donorP) {
		panic(fmt.Sprintf("donor run under %v handed over as %v", d.p, donorP))
	}
	if d.consumed.Swap(true) {
		panic(fmt.Sprintf("run under %v donated twice", d.p))
	}
	return b.record(p, &donorP)
}

func (b *lineBatch) record(p uset.Set, donorP *uset.Set) *lineRun {
	b.mu.Lock()
	defer b.mu.Unlock()
	if _, ok := b.donors[p.Key()]; ok {
		panic(fmt.Sprintf("second run under %v", p))
	}
	b.donors[p.Key()] = donorP
	return &lineRun{b: b, p: p, resumed: donorP != nil}
}

func (b *lineBatch) Backward(_ *budget.Budget, q int, p uset.Set, _ lang.Trace) []ParamCube {
	cubes := append([]ParamCube(nil), b.extra[q]...)
	for _, st := range b.stages[q] {
		if st.SubsetOf(p) {
			continue
		}
		for _, v := range st.Elems() {
			if !p.Has(v) {
				cubes = append(cubes, ParamCube{Neg: uset.New(v)})
			}
		}
		break
	}
	return cubes
}

type lineRun struct {
	b        *lineBatch
	p        uset.Set
	resumed  bool
	consumed atomic.Bool
}

func (r *lineRun) Check(q int) (bool, lang.Trace) {
	if r.consumed.Load() {
		panic(fmt.Sprintf("check of consumed run under %v", r.p))
	}
	for _, st := range r.b.stages[q] {
		if !st.SubsetOf(r.p) {
			return false, lang.Trace{lang.MoveNull{V: "x"}}
		}
	}
	return true, nil
}

// Steps charges 10 plus one per parameter on, so a run charged twice or
// under the wrong abstraction shows in the totals.
func (r *lineRun) Steps() int { return 10 + r.p.Len() }

func (r *lineRun) DeltaStats() (resumes, reused, invalidated int) {
	if r.resumed {
		return 1, 5, 1
	}
	return 0, 0, 0
}

// TestSolveBatchLineage pins SolveBatch's reuse rule on a scripted batch:
//
//	round 1: {} (cold) for everyone; q0, q1, q4 learn (x0), q4 also
//	         (x0 ∨ x7), q2, q3 learn (x1): three sibling groups
//	         A = {q0, q1}, C = {q4}, B = {q2, q3}, in signature order
//	round 2: A picks {0} and resumes {}; C picks {0} too and shares A's
//	         run; B picks {1} and runs cold, since A took the parent
//	round 3: q1 jumps {0} → {0,2,3,5} (three flips) and q3 {1} → {1,4};
//	         each resumes its own group's last run
//
// Each run is charged once, shared or not; every query is charged the
// steps of the runs it was checked against; and the results, stats, events
// and donors are the same at 1, 2 and 4 workers.
func TestSolveBatchLineage(t *testing.T) {
	run := func(workers int) (*BatchResult, []obs.Event, *obs.Agg, map[string]*uset.Set) {
		b := &lineBatch{
			n: 8,
			stages: [][]uset.Set{
				{uset.New(0)},
				{uset.New(0), uset.New(2, 3, 5)},
				{uset.New(1)},
				{uset.New(1), uset.New(4)},
				{uset.New(0)},
			},
			extra:  [][]ParamCube{4: {{Neg: uset.New(0, 7)}}},
			donors: map[string]*uset.Set{},
		}
		capt, agg := obs.NewCapture(), obs.NewAgg()
		res, err := SolveBatch(b, Options{Workers: workers, Recorder: obs.Multi(capt, agg)})
		if err != nil {
			t.Fatal(err)
		}
		return res, capt.Events(), agg, b.donors
	}
	res, events, agg, donors := run(1)

	wantAbs := []uset.Set{uset.New(0), uset.New(0, 2, 3, 5), uset.New(1), uset.New(1, 4), uset.New(0)}
	wantSteps := []int{21, 35, 21, 33, 21}
	for q, r := range res.Results {
		if r.Status != Proved || !r.Abstraction.Equal(wantAbs[q]) || r.ForwardSteps != wantSteps[q] {
			t.Errorf("query %d: %v under %v after %d steps, want proved under %v after %d",
				q, r.Status, r.Abstraction, r.ForwardSteps, wantAbs[q], wantSteps[q])
		}
	}
	wantDonors := map[string]string{ // run → donor, "cold" for a cold run
		"": "cold", "0": "", "1": "cold", "0,2,3,5": "0", "1,4": "1",
	}
	if len(donors) != len(wantDonors) {
		t.Errorf("runs %v, want %v", donors, wantDonors)
	}
	for run, want := range wantDonors {
		d, ok := donors[run]
		got := "cold"
		if !ok {
			got = "no run"
		} else if d != nil {
			got = d.Key()
		}
		if got != want {
			t.Errorf("run {%s} resumed %q, want %q", run, got, want)
		}
	}
	wantStats := BatchStats{
		ForwardRuns: 5, PeakGroups: 3, TotalGroups: 6, TotalSteps: 58, Rounds: 3,
		FwdCacheHits: 1, FwdCacheMisses: 5,
		DeltaResumes: 3, PEReused: 15, PEInvalidated: 3,
	}
	if res.Stats != wantStats {
		t.Errorf("Stats = %+v, want %+v", res.Stats, wantStats)
	}
	if h, m := agg.Counter(obs.BatchFwdCacheHit), agg.Counter(obs.BatchFwdCacheMiss); h != 1 || m != 5 {
		t.Errorf("obs counters hit/miss = %d/%d, want 1/5", h, m)
	}
	if got := agg.Counter(obs.ForwardDeltaResumes); got != 3 {
		t.Errorf("%s = %d, want 3", obs.ForwardDeltaResumes, got)
	}
	steps := 0
	for _, ev := range events {
		if ev.Kind == obs.ForwardDone {
			steps += ev.Steps
		}
	}
	if steps != wantStats.TotalSteps {
		t.Errorf("forward_done events charge %d steps, want %d", steps, wantStats.TotalSteps)
	}

	for _, w := range []int{2, 4} {
		gotRes, gotEvents, _, gotDonors := run(w)
		if !reflect.DeepEqual(gotRes, res) {
			t.Errorf("Workers=%d: result %+v, want %+v", w, gotRes, res)
		}
		if !reflect.DeepEqual(gotDonors, donors) {
			t.Errorf("Workers=%d: donors differ from Workers=1", w)
		}
		if len(gotEvents) != len(events) {
			t.Fatalf("Workers=%d: %d events, want %d", w, len(gotEvents), len(events))
		}
		for i := range gotEvents {
			ev, base := gotEvents[i], events[i]
			ev.WallNS, base.WallNS = 0, 0
			if ev != base {
				t.Fatalf("Workers=%d: event %d differs: %+v vs %+v", w, i, ev, base)
			}
		}
	}
}
