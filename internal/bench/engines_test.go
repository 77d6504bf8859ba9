package bench

import (
	"testing"

	"tracer/internal/core"
	"tracer/internal/driver"
)

// TestEnginesAgreeOnSuite cross-validates the two interprocedural backends
// on a generated benchmark: every §6-style query of one Program must
// resolve to the same status, with the same cheapest abstraction, whether
// it is posed on the inlined CFG (ClientSpec.Job) or on the RHS supergraph
// (ClientSpec.RHSJob).
func TestEnginesAgreeOnSuite(t *testing.T) {
	b := MustLoad(Suite()[0]) // tsp
	opts := core.Options{MaxIters: 300}
	for _, spec := range driver.Clients() {
		for i, q := range spec.Queries(b.Prog) {
			want, err := core.Solve(spec.Job(b.Prog, i, 5), opts)
			if err != nil {
				t.Fatal(err)
			}
			got, err := core.Solve(spec.RHSJob(b.Prog, i, 5, false), opts)
			if err != nil {
				t.Fatal(err)
			}
			if got.Status != want.Status {
				t.Errorf("%s: rhs %v vs inline %v", q.ID, got.Status, want.Status)
			}
			if want.Status == core.Proved && !got.Abstraction.Equal(want.Abstraction) {
				t.Errorf("%s: rhs p=%s vs inline %s", q.ID, got.Abstraction, want.Abstraction)
			}
		}
	}
}
