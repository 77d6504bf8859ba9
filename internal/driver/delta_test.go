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
// annotation are zeroed everywhere; Steps stays, since a resumed run makes
// the discoveries of a cold one.
func phaseStream(evs []obs.Event) []obs.Event {
	var out []obs.Event
	for _, e := range evs {
		switch e.Kind {
		case obs.CounterKind, obs.GaugeKind, obs.TimingKind:
			continue
		}
		e.WallNS = 0
		e.Reused = 0
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
// requires identical results and phase events.
func checkDeltaPair(t *testing.T, label string, cold, delta core.Problem) {
	t.Helper()
	wantRes, wantEvs := solveCaptured(t, cold)
	gotRes, gotEvs := solveCaptured(t, delta)
	if !reflect.DeepEqual(gotRes, wantRes) {
		t.Fatalf("%s: delta result %+v, cold %+v", label, gotRes, wantRes)
	}
	diffStreams(t, label, phaseStream(gotEvs), phaseStream(wantEvs))
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

// coldBatch embeds only core.BatchProblem, hiding a batch's
// core.DeltaBatchProblem side: SolveBatch cannot resume a donor's run, so
// every forward run solves cold.
type coldBatch struct{ core.BatchProblem }

// TestDeltaMatchesColdBatch sweeps the batch scheduler's worker grid with
// donor resumption on and off. The reference is the sequential cold run;
// every variant must produce the same results, forward steps included, and
// the same phase-event stream.
func TestDeltaMatchesColdBatch(t *testing.T) {
	p := load(t)
	for _, spec := range Clients() {
		all := make([]int, len(spec.Queries(p)))
		for i := range all {
			all[i] = i
		}
		run := func(workers int, cold bool) ([]core.Result, []obs.Event) {
			var bp core.BatchProblem = spec.Batch(p, all, 1)
			if cold {
				bp = coldBatch{bp}
			}
			cap := obs.NewCapture()
			res, err := core.SolveBatch(bp, core.Options{Workers: workers, Recorder: cap})
			if err != nil {
				t.Fatal(err)
			}
			return res.Results, phaseStream(cap.Events())
		}
		wantRes, wantEvs := run(1, true)
		for _, workers := range []int{1, 2, 4} {
			for _, cold := range []bool{false, true} {
				label := fmt.Sprintf("%s workers=%d cold=%t", spec.Name, workers, cold)
				gotRes, gotEvs := run(workers, cold)
				if !reflect.DeepEqual(gotRes, wantRes) {
					t.Fatalf("%s: results %+v, reference %+v", label, gotRes, wantRes)
				}
				diffStreams(t, label, gotEvs, wantEvs)
			}
		}
	}
}
