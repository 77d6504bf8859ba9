package bench

import (
	"testing"

	"tracer/internal/core"
)

// TestBatchMatchesIndividual: the §6 query-grouping driver must resolve
// every query to the same status and cheapest-abstraction size as running
// TRACER per query, while performing fewer forward runs than the total of
// the individual iterations.
func TestBatchMatchesIndividual(t *testing.T) {
	b := MustLoad(Suite()[0]) // tsp
	opts := RunOptions{K: 5, MaxIters: 300, MaxQueries: 20}
	for _, cl := range []Client{Typestate, Escape} {
		ind, err := Run(b, cl, opts)
		if err != nil {
			t.Fatal(err)
		}
		batch, err := RunBatch(b, cl, opts)
		if err != nil {
			t.Fatal(err)
		}
		if len(batch.Results) != len(ind.Outcomes) {
			t.Fatalf("%s: %d batch results vs %d individual", cl, len(batch.Results), len(ind.Outcomes))
		}
		totalIndividualIters := 0
		for q, o := range ind.Outcomes {
			br := batch.Results[q]
			if br.Status != o.Status {
				t.Errorf("%s query %s: batch %v vs individual %v", cl, o.ID, br.Status, o.Status)
			}
			if o.Status == core.Proved && br.Abstraction.Len() != o.Abstraction.Len() {
				t.Errorf("%s query %s: batch |p|=%d vs individual %d", cl, o.ID, br.Abstraction.Len(), o.Abstraction.Len())
			}
			totalIndividualIters += o.Iterations
		}
		if batch.Stats.ForwardRuns >= totalIndividualIters {
			t.Errorf("%s: grouping gave no sharing: %d forward runs vs %d individual iterations",
				cl, batch.Stats.ForwardRuns, totalIndividualIters)
		}
		t.Logf("%-13s batch forward runs %d vs individual iterations %d (groups: %d)",
			cl, batch.Stats.ForwardRuns, totalIndividualIters, batch.Stats.TotalGroups)
	}
}
