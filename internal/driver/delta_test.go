package driver

import (
	"fmt"
	"reflect"
	"testing"

	"tracer/internal/core"
	"tracer/internal/obs"
)

// The delta differential suite pins the incremental forward engine against
// the cold executor on the real pipelines: every query of the driver
// fixtures is resolved twice — NoDelta (the reference, solving cold every
// CEGAR iteration) and delta (resuming retained runs across abstraction
// flips) — and the resolutions must be indistinguishable: identical
// Results and identical phase-event streams.

// phaseStream projects a captured stream onto its semantic phase events.
// Measurement records (counters, gauges, timings) are dropped: they report
// how much internal work ran, which the delta path intentionally changes
// (and the delta counters exist only on one side). WallNS and the Reused
// annotation are zeroed everywhere; zeroSteps additionally clears Steps,
// which batch donor consumption legitimately shifts between runs (a
// consumed donor turns a future cache hit into a resumed solve).
func phaseStream(evs []obs.Event, zeroSteps bool) []obs.Event {
	var out []obs.Event
	for _, e := range evs {
		switch e.Kind {
		case obs.CounterKind, obs.GaugeKind, obs.TimingKind:
			continue
		}
		e.WallNS = 0
		e.Reused = 0
		if zeroSteps {
			e.Steps = 0
		}
		out = append(out, e)
	}
	return out
}

// diffStreams fails the test at the first diverging event.
func diffStreams(t *testing.T, label string, got, want []obs.Event) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d phase events, reference %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: event %d differs:\ndelta %+v\ncold  %+v", label, i, got[i], want[i])
		}
	}
}

// solveCaptured solves one problem with a capturing recorder.
func solveCaptured(t *testing.T, job core.Problem) (core.Result, []obs.Event) {
	t.Helper()
	cap := obs.NewCapture()
	res, err := core.Solve(job, core.Options{Recorder: cap})
	if err != nil {
		t.Fatal(err)
	}
	return res, cap.Events()
}

// checkDeltaPair runs a cold and a delta instance of the same query and
// requires identical resolutions. The single-query engines replay
// step-identically, so Steps stays in the comparison.
func checkDeltaPair(t *testing.T, label string, cold, delta core.Problem) {
	t.Helper()
	wantRes, wantEvs := solveCaptured(t, cold)
	gotRes, gotEvs := solveCaptured(t, delta)
	if !reflect.DeepEqual(gotRes, wantRes) {
		t.Fatalf("%s: delta result %+v, cold %+v", label, gotRes, wantRes)
	}
	diffStreams(t, label, phaseStream(gotEvs, false), phaseStream(wantEvs, false))
}

// TestDeltaMatchesColdInlining covers every registered client on the inlining
// pipeline: the CEGAR loop's abstraction flips drive dataflow.Chain, and
// the resolution must match a cold solve of every query exactly. Each
// instance comes from its own one-query batch, so the two share no cache.
func TestDeltaMatchesColdInlining(t *testing.T) {
	p := load(t)
	for _, spec := range Clients() {
		for i, q := range spec.Queries(p) {
			cold := spec.Batch(p, []int{i}, 1).Job(0, true)
			delta := spec.Batch(p, []int{i}, 1).Job(0, false)
			checkDeltaPair(t, spec.Name+" "+q.ID, cold, delta)
		}
	}
}

// TestDeltaMatchesColdRHS covers every client on the tabulation pipeline
// (rhs.Chain) over the recursive fixture the inliner rejects.
func TestDeltaMatchesColdRHS(t *testing.T) {
	p, err := LoadRHS(recursiveSrc)
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range Clients() {
		for i, q := range spec.Queries(p) {
			checkDeltaPair(t, "rhs "+spec.Name+" "+q.ID, spec.RHSJob(p, i, 1, true), spec.RHSJob(p, i, 1, false))
		}
	}
}

// resolution is the cache-independent projection of a batch query's result:
// donor resumption changes step accounting but may not change how any
// query resolves.
type resolution struct {
	Status  core.Status
	Abs     string
	Iters   int
	Clauses int
}

func resolutions(rs []core.Result) []resolution {
	out := make([]resolution, len(rs))
	for i, r := range rs {
		out[i] = resolution{r.Status, r.Abstraction.String(), r.Iterations, r.Clauses}
	}
	return out
}

// coldBatch embeds only core.BatchProblem, hiding a batch's
// core.DeltaBatchProblem side: SolveBatch cannot resume a donor's run, so
// every forward run it misses in the memo solves cold.
type coldBatch struct{ core.BatchProblem }

// TestDeltaMatchesColdBatch sweeps the batch scheduler's worker grid with
// donor resumption on and off. The reference is the sequential cold run;
// every variant must produce the same per-query resolutions and the same
// phase-event stream (modulo step accounting, which donor consumption
// shifts between forward runs without changing any verdict).
func TestDeltaMatchesColdBatch(t *testing.T) {
	p := load(t)
	for _, spec := range Clients() {
		all := make([]int, len(spec.Queries(p)))
		for i := range all {
			all[i] = i
		}
		run := func(workers int, cold bool) ([]resolution, []obs.Event) {
			var bp core.BatchProblem = spec.Batch(p, all, 1)
			if cold {
				bp = coldBatch{bp}
			}
			cap := obs.NewCapture()
			res, err := core.SolveBatch(bp, core.Options{Workers: workers, Recorder: cap})
			if err != nil {
				t.Fatal(err)
			}
			return resolutions(res.Results), phaseStream(cap.Events(), true)
		}
		wantRes, wantEvs := run(1, true)
		for _, workers := range []int{1, 2, 4} {
			for _, cold := range []bool{false, true} {
				label := fmt.Sprintf("%s workers=%d cold=%t", spec.Name, workers, cold)
				gotRes, gotEvs := run(workers, cold)
				if !reflect.DeepEqual(gotRes, wantRes) {
					t.Fatalf("%s: resolutions %+v, reference %+v", label, gotRes, wantRes)
				}
				diffStreams(t, label, gotEvs, wantEvs)
			}
		}
	}
}
