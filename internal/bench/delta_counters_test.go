package bench

import (
	"testing"

	"tracer/internal/core"
	"tracer/internal/driver"
	"tracer/internal/obs"
)

// TestDeltaCountersReconcile pins the forward.delta_* counters to the
// accounting they summarize, for every client on tsp: through SolveBatch
// they equal BatchStats' delta totals, and through per-query Solve, on the
// inline jobs and on the tabulation (RHS) jobs, the reused counter, which
// the loop counts from each run's Outcome, equals the sum of the
// forward_done events' Reused fields.
func TestDeltaCountersReconcile(t *testing.T) {
	b := MustLoad(Suite()[0]) // tsp
	for _, spec := range driver.Clients() {
		queries := spec.Queries(b.Prog)
		idx := make([]int, len(queries))
		for i := range idx {
			idx[i] = i
		}
		agg := obs.NewAgg()
		res, err := core.SolveBatch(spec.Batch(b.Prog, idx, 5), core.Options{MaxIters: 100, Recorder: agg})
		if err != nil {
			t.Fatal(err)
		}
		st := res.Stats
		if st.DeltaResumes == 0 {
			t.Errorf("%s batch: no delta resumes, so the check below is vacuous", spec.Name)
		}
		for _, c := range []struct {
			name string
			want int
		}{
			{obs.ForwardDeltaResumes, st.DeltaResumes},
			{obs.ForwardDeltaReused, st.PEReused},
			{obs.ForwardDeltaInvalidated, st.PEInvalidated},
		} {
			if got := agg.Counter(c.name); got != int64(c.want) {
				t.Errorf("%s batch: %s = %d, BatchStats says %d", spec.Name, c.name, got, c.want)
			}
		}

		perQueryReused(t, spec.Name+" per query", len(queries), func(i int) core.Problem { return spec.Job(b.Prog, i, 5) })
		perQueryReused(t, spec.Name+" RHS per query", len(queries), func(i int) core.Problem { return spec.RHSJob(b.Prog, i, 5, false) })
	}
}

// perQueryReused solves n queries one Solve each and checks that the
// forward.delta_reused counter equals the sum of the forward_done events'
// Reused fields.
func perQueryReused(t *testing.T, name string, n int, job func(i int) core.Problem) {
	t.Helper()
	agg, capt := obs.NewAgg(), obs.NewCapture()
	rec := obs.Multi(agg, capt)
	for i := 0; i < n; i++ {
		if _, err := core.Solve(job(i), core.Options{MaxIters: 100, Recorder: rec}); err != nil {
			t.Fatal(err)
		}
	}
	var reused int64
	for _, e := range capt.Filter(obs.ForwardDone) {
		reused += int64(e.Reused)
	}
	if reused == 0 {
		t.Errorf("%s: no reused discoveries, so the check below is vacuous", name)
	}
	if got := agg.Counter(obs.ForwardDeltaReused); got != reused {
		t.Errorf("%s: %s = %d, forward_done events sum to %d", name, obs.ForwardDeltaReused, got, reused)
	}
}
