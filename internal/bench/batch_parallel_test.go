package bench

import (
	"reflect"
	"testing"

	"tracer/internal/core"
)

// TestRunBatchWorkerDeterminism: on a real benchmark, the parallel batch
// scheduler is bit-identical to the sequential run — same Results and same
// BatchStats for every worker count — and groups of one round share runs.
// Runs under the tier-1 -race gate, so it also exercises the
// concurrent Check/Backward paths of both drivers.
func TestRunBatchWorkerDeterminism(t *testing.T) {
	b := MustLoad(Suite()[0]) // tsp
	for _, cl := range []Client{Typestate, Escape} {
		run := func(workers int) *core.BatchResult {
			res, err := RunBatch(b, cl, RunOptions{
				K: 5, MaxIters: 300, MaxQueries: 24, BatchWorkers: workers,
			})
			if err != nil {
				t.Fatalf("%s workers=%d: %v", cl, workers, err)
			}
			return res
		}
		base := run(1)
		if base.Stats.FwdCacheHits == 0 {
			t.Errorf("%s: no two groups of a round shared a run on tsp", cl)
		}
		for _, workers := range []int{2, 4} {
			got := run(workers)
			if !reflect.DeepEqual(got.Results, base.Results) {
				t.Errorf("%s: Results differ between workers=%d and workers=1", cl, workers)
			}
			if got.Stats != base.Stats {
				t.Errorf("%s: Stats = %+v (workers=%d), want %+v (workers=1)", cl, got.Stats, workers, base.Stats)
			}
		}
		t.Logf("%-13s queries=%d fwd=%d hits=%d misses=%d rounds=%d",
			cl, len(base.Results), base.Stats.ForwardRuns,
			base.Stats.FwdCacheHits, base.Stats.FwdCacheMisses, base.Stats.Rounds)
	}
}
