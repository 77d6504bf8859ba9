package bench

import (
	"testing"

	"tracer/internal/core"
	"tracer/internal/driver"
)

// TestEnginesAgreeOnSuite cross-validates the two interprocedural backends
// on a generated benchmark: every §6-style query must resolve to the same
// status, with the same cheapest-abstraction size, whether the program is
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

	inlTS, rhsTS := b.Prog.TypestateQueries(), rhsProg.TypestateQueries()
	enginesAgree(t, "type-state", len(inlTS), len(rhsTS), func(i int) (string, string, core.Problem, core.Problem) {
		return inlTS[i].ID, rhsTS[i].ID, b.Prog.TypestateJob(inlTS[i], 5), rhsProg.TypestateJob(rhsTS[i], 5)
	})
	inlEsc, rhsEsc := b.Prog.EscapeQueries(), rhsProg.EscapeQueries()
	enginesAgree(t, "escape", len(inlEsc), len(rhsEsc), func(i int) (string, string, core.Problem, core.Problem) {
		return inlEsc[i].ID, rhsEsc[i].ID, b.Prog.EscapeJob(inlEsc[i], 5), rhsProg.EscapeJob(rhsEsc[i], 5)
	})
	inlNull, rhsNull := b.Prog.NullnessQueries(), rhsProg.NullnessQueries()
	enginesAgree(t, "nullness", len(inlNull), len(rhsNull), func(i int) (string, string, core.Problem, core.Problem) {
		return inlNull[i].ID, rhsNull[i].ID, b.Prog.NullnessJob(inlNull[i], 5), rhsProg.NullnessJob(rhsNull[i], 5)
	})
}

// enginesAgree solves the first 15 of one client's n queries on both
// engines. pair returns query i's inline and RHS IDs and problems.
func enginesAgree(t *testing.T, client string, n, rhsN int, pair func(i int) (id, rhsID string, inline, rhs core.Problem)) {
	t.Helper()
	if n != rhsN {
		t.Fatalf("%s query counts differ: inline %d vs rhs %d", client, n, rhsN)
	}
	const cap = 15
	opts := core.Options{MaxIters: 300}
	for i := 0; i < min(n, cap); i++ {
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
		if want.Status == core.Proved && got.Abstraction.Len() != want.Abstraction.Len() {
			t.Errorf("%s: rhs |p|=%d vs inline %d", id, got.Abstraction.Len(), want.Abstraction.Len())
		}
	}
}
