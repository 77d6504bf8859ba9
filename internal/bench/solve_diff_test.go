package bench

import (
	"os"
	"testing"

	"tracer/internal/core"
	"tracer/internal/driver"
	"tracer/internal/obs"
)

// TestSolveMatchesBatch: Solve is the batch loop run over one query, and
// grouping queries (§6) changes no query's refinement, and the delta chain
// makes the discoveries of a cold solve, so four paths must agree on every
// client's every query: Solve on the query's Job, Solve on its NoDelta job
// (the cold executor, which solves every forward run from scratch),
// SolveBatch on a batch of that query alone, and the query's row of
// SolveBatch over all of the client's queries. All four must give the same
// status, iterations, abstraction and learned clauses, and the first three
// the same forward steps (the whole batch shares runs, so it charges steps
// differently). The batch of one resumes each run from its last one, as the
// job's chain does, so it also reports the job's forward.delta_resumes,
// forward.delta_reused and forward.delta_invalidated. It runs at MaxIters
// 100 and at 3, where a fifth of tsp's queries reach the cap. Tier 1 runs it
// on tsp; SOLVE_DIFF_SUITE=all runs it on all seven programs (make fuzz).
func TestSolveMatchesBatch(t *testing.T) {
	progs := Suite()[:1] // tsp
	if os.Getenv("SOLVE_DIFF_SUITE") == "all" {
		progs = Suite()
	}
	const k = 5
	capped := 0 // queries exhausted at MaxIters 3
	for _, c := range progs {
		b := MustLoad(c)
		for _, spec := range driver.Clients() {
			queries := spec.Queries(b.Prog)
			all := make([]int, len(queries))
			for i := range all {
				all[i] = i
			}
			for _, maxIters := range []int{100, 3} {
				opts := core.Options{MaxIters: maxIters}
				whole, err := core.SolveBatch(spec.Batch(b.Prog, all, k), opts)
				if err != nil {
					t.Fatal(err)
				}
				for i, q := range queries {
					wantAgg, oneAgg := obs.NewAgg(), obs.NewAgg()
					want, err := core.Solve(spec.Job(b.Prog, i, k), core.Options{MaxIters: maxIters, Recorder: wantAgg})
					if err != nil {
						t.Fatalf("%s %s: %v", c.Name, q.ID, err)
					}
					if maxIters == 3 && want.Status == core.Exhausted {
						capped++
					}
					one, err := core.SolveBatch(spec.Batch(b.Prog, []int{i}, k), core.Options{MaxIters: maxIters, Recorder: oneAgg})
					if err != nil {
						t.Fatal(err)
					}
					for _, name := range []string{obs.ForwardDeltaResumes, obs.ForwardDeltaReused, obs.ForwardDeltaInvalidated} {
						if got, w := oneAgg.Counter(name), wantAgg.Counter(name); got != w {
							t.Errorf("%s %s MaxIters %d: batch of one counts %s %d, Solve %d",
								c.Name, q.ID, maxIters, name, got, w)
						}
					}
					cold, err := core.Solve(spec.Batch(b.Prog, []int{i}, k).Job(0, true), opts)
					if err != nil {
						t.Fatalf("%s %s cold: %v", c.Name, q.ID, err)
					}
					for _, got := range []struct {
						path string
						r    core.Result
					}{{"cold executor", cold}, {"batch of one", one.Results[0]}, {"whole batch", whole.Results[i]}} {
						r := got.r
						if r.Status != want.Status || r.Iterations != want.Iterations ||
							!r.Abstraction.Equal(want.Abstraction) || r.Clauses != want.Clauses {
							t.Errorf("%s %s MaxIters %d: %s gives %v after %d iterations, %v, %d clauses; Solve %v after %d, %v, %d",
								c.Name, q.ID, maxIters, got.path, r.Status, r.Iterations, r.Abstraction, r.Clauses,
								want.Status, want.Iterations, want.Abstraction, want.Clauses)
						}
					}
					if cold.ForwardSteps != want.ForwardSteps {
						t.Errorf("%s %s MaxIters %d: cold executor took %d forward steps, Solve %d",
							c.Name, q.ID, maxIters, cold.ForwardSteps, want.ForwardSteps)
					}
					if r := one.Results[0]; r.ForwardSteps != want.ForwardSteps {
						t.Errorf("%s %s MaxIters %d: batch of one took %d forward steps, Solve %d",
							c.Name, q.ID, maxIters, r.ForwardSteps, want.ForwardSteps)
					}
				}
			}
		}
	}
	if capped == 0 {
		t.Error("no query reached MaxIters 3, so the cap is untested")
	}
}
