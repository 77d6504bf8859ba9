package bench

import (
	"testing"

	"tracer/internal/core"
	"tracer/internal/driver"
)

// TestEnginesAgreeOnSuite cross-validates the two interprocedural backends
// on a generated benchmark: every §6-style query must resolve to the same
// status, with the same cheapest abstraction, whether the program is
// analyzed over the inlined CFG or over the RHS supergraph. Queries are
// matched by their source-statement identity (the IDs embed positions,
// which coincide because both pipelines parse the same source).
func TestEnginesAgreeOnSuite(t *testing.T) {
	cfg := Suite()[0] // tsp
	b := MustLoad(cfg)
	rhsProg, err := driver.LoadRHS(b.Source)
	if err != nil {
		t.Fatal(err)
	}

	ts, esc, null := driver.ClientByName("typestate"), driver.ClientByName("escape"), driver.ClientByName("nullness")
	inlTS, rhsTS := b.Prog.TypestateQueries(), rhsProg.TypestateQueries()
	enginesAgree(t, "type-state", len(inlTS), len(rhsTS), func(i int) (string, string, core.Problem, core.Problem) {
		return inlTS[i].ID, rhsTS[i].ID, ts.Job(b.Prog, i, 5), rhsProg.TypestateJob(rhsTS[i], 5)
	})
	inlEsc, rhsEsc := b.Prog.EscapeQueries(), rhsProg.EscapeQueries()
	enginesAgree(t, "escape", len(inlEsc), len(rhsEsc), func(i int) (string, string, core.Problem, core.Problem) {
		return inlEsc[i].ID, rhsEsc[i].ID, esc.Job(b.Prog, i, 5), rhsProg.EscapeJob(rhsEsc[i], 5)
	})
	inlNull, rhsNull := b.Prog.NullnessQueries(), rhsProg.NullnessQueries()
	enginesAgree(t, "nullness", len(inlNull), len(rhsNull), func(i int) (string, string, core.Problem, core.Problem) {
		return inlNull[i].ID, rhsNull[i].ID, null.Job(b.Prog, i, 5), rhsProg.NullnessJob(rhsNull[i], 5)
	})
}

// enginesAgree solves every one of a client's n queries on both engines.
// pair returns query i's inline and RHS IDs and problems.
func enginesAgree(t *testing.T, client string, n, rhsN int, pair func(i int) (id, rhsID string, inline, rhs core.Problem)) {
	t.Helper()
	if n != rhsN {
		t.Fatalf("%s query counts differ: inline %d vs rhs %d", client, n, rhsN)
	}
	opts := core.Options{MaxIters: 300}
	for i := 0; i < n; i++ {
		id, rhsID, inline, rhs := pair(i)
		if id != rhsID {
			t.Fatalf("%s query %d: ids differ: %s vs %s", client, i, id, rhsID)
		}
		want, err := core.Solve(inline, opts)
		if err != nil {
			t.Fatal(err)
		}
		got, err := core.Solve(rhs, opts)
		if err != nil {
			t.Fatal(err)
		}
		if got.Status != want.Status {
			t.Errorf("%s: rhs %v vs inline %v", id, got.Status, want.Status)
		}
		if want.Status == core.Proved && !got.Abstraction.Equal(want.Abstraction) {
			t.Errorf("%s: rhs p=%s vs inline %s", id, got.Abstraction, want.Abstraction)
		}
	}
}
