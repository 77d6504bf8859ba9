package client_test

import (
	"reflect"
	"testing"

	"tracer/internal/client"
	"tracer/internal/core"
	"tracer/internal/lang"
	"tracer/internal/typestate"
	"tracer/internal/uset"
)

// TestRunForwardFromHandsOverUnusedParts pins the donor contract of a batch
// with two parts (two tracked sites): a run passes on the chain of a part
// it inherited and never solved, the run after it resumes that chain when
// it solves the part, and the resumed check answers like a cold run's. The
// scheduler reaches this only in batches of three or more rounds, which the
// oracle's small generated cases rarely have.
func TestRunForwardFromHandsOverUnusedParts(t *testing.T) {
	g := lang.BuildCFG(lang.SeqN(
		lang.Atoms(lang.Alloc{V: "x", H: "h"}, lang.Alloc{V: "y", H: "g"}),
		lang.If(lang.Atoms(lang.Move{Dst: "z", Src: "y"})),
		lang.Atoms(lang.Invoke{V: "x", M: "open"}, lang.Invoke{V: "y", M: "open"}),
		lang.Atoms(lang.Invoke{V: "x", M: "close"}, lang.Invoke{V: "z", M: "close"}),
	))
	prop := typestate.FileProperty()
	vars := typestate.CollectVars(g)
	fresh := func(site string) *typestate.Analysis { return typestate.New(prop, site, vars) }
	closed := uset.Bits(0).Add(prop.MustState("closed"))
	qs := []typestate.Query{{Nodes: []int{g.Exit}, Want: closed}, {Nodes: []int{g.Exit}, Want: closed}}
	b := client.NewBatch(g, fresh, qs, []string{"h", "g"}, 1, client.NewCaches(typestate.Theory{}))
	const qh, qg = 0, 1

	p0, p1, p2 := uset.New(), uset.New(1), uset.New(1, 2)
	r0 := b.RunForward(nil, p0)
	r0.Check(qh)
	r0.Check(qg)
	r1 := b.RunForwardFrom(nil, p1, r0, p0)
	r1.Check(qh) // site g stays unsolved; r1 holds r0's chain for it
	r2 := b.RunForwardFrom(nil, p2, r1, p1)
	if resumes, _, _ := r2.(core.DeltaRun).DeltaStats(); resumes != 0 {
		t.Fatalf("r2 resumed %d solves before any check", resumes)
	}
	proved, trace := r2.Check(qg)
	if resumes, _, _ := r2.(core.DeltaRun).DeltaStats(); resumes != 1 {
		t.Fatalf("r2's solve of site g resumed %d chains, want r0's", resumes)
	}
	wantProved, wantTrace := b.RunForward(nil, p2).Check(qg)
	if proved != wantProved || !reflect.DeepEqual(trace, wantTrace) {
		t.Fatalf("resumed check (%t, %v), cold check (%t, %v)", proved, trace, wantProved, wantTrace)
	}
}
