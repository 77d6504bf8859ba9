package bench

import (
	"testing"

	"tracer/internal/core"
	"tracer/internal/driver"
	"tracer/internal/obs"
)

// TestDeltaCountersReconcile pins the forward.delta_* counters to the
// accounting they summarize, for every client on tsp: through SolveBatch
// they equal BatchStats' delta totals, and through per-query Solve the
// reused counter, which the jobs flush, equals the sum of the forward_done
// events' Reused fields.
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

		agg, capt := obs.NewAgg(), obs.NewCapture()
		rec := obs.Multi(agg, capt)
		for i := range queries {
			if _, err := core.Solve(spec.Job(b.Prog, i, 5), core.Options{MaxIters: 100, Recorder: rec}); err != nil {
				t.Fatal(err)
			}
		}
		var reused int64
		for _, e := range capt.Filter(obs.ForwardDone) {
			reused += int64(e.Reused)
		}
		if reused == 0 {
			t.Errorf("%s per query: no reused discoveries, so the check below is vacuous", spec.Name)
		}
		if got := agg.Counter(obs.ForwardDeltaReused); got != reused {
			t.Errorf("%s per query: %s = %d, forward_done events sum to %d", spec.Name, obs.ForwardDeltaReused, got, reused)
		}
	}
}
