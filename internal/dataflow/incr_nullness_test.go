package dataflow_test

import (
	"fmt"
	"math/rand"
	"testing"

	"tracer/internal/dataflow"
	"tracer/internal/lang"
	"tracer/internal/nullness"
	"tracer/internal/oracle/gen"
	"tracer/internal/uset"
)

// The nullness flip suite mirrors the escape/typestate chains above for the
// third client. Nullness parameters are the cells themselves (locals then
// fields), so the walks flip over locals+fields rather than sites.

func nullnessChainCells() int { return len(chainLocals) + len(chainFields) }

func TestChainFlipChainNullness(t *testing.T) {
	pool := gen.Pool(gen.Universe{
		Vars: chainLocals, Sites: chainSites, Fields: chainFields,
		Globals: []string{"G"}, Methods: []string{"m"},
	})
	trips := 0
	for seed := int64(0); seed < chainSeeds(6); seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			g := lang.BuildCFG(gen.Program(rng, pool, gen.DefaultConfig(4+rng.Intn(8))))
			a := nullness.New(chainLocals, chainFields)
			trips += flipWalk(t, g, a.Initial(), a.Step, func() uset.Set { return randAbs(rng, nullnessChainCells()) })
		})
	}
	requireTrips(t, trips)
}

// TestChainSingleBitWalkNullness flips exactly one cell per step (see
// TestChainSingleBitWalk).
func TestChainSingleBitWalkNullness(t *testing.T) {
	pool := gen.Pool(gen.Universe{
		Vars: chainLocals, Sites: chainSites, Fields: chainFields,
		Globals: []string{"G"}, Methods: []string{"m"},
	})
	rng := rand.New(rand.NewSource(42))
	g := lang.BuildCFG(gen.Program(rng, pool, gen.DefaultConfig(10)))
	a := nullness.New(chainLocals, chainFields)
	ch := dataflow.NewChain[nullness.State](g)
	cur := uset.Set(nil)
	for step := 0; step < 16; step++ {
		k := rng.Intn(nullnessChainCells())
		if cur.Has(k) {
			cur = cur.Remove(k)
		} else {
			cur = cur.Add(k)
		}
		got := ch.Solve(cur, a.Initial(), a.Step, nil)
		want := dataflow.SolveBudget(g, a.Initial(), dataflow.At(a.Step, cur), nil)
		checkEquiv(t, g, got, want, a.Initial(), dataflow.At(a.Step, cur))
	}
}

// TestChainRepeatedAbstractionNullness re-solves the same abstraction back
// to back: the second solve must take the zero-work fast path and still
// return the full, correct result.
func TestChainRepeatedAbstractionNullness(t *testing.T) {
	pool := gen.Pool(gen.Universe{
		Vars: chainLocals, Sites: chainSites, Fields: chainFields,
		Globals: []string{"G"}, Methods: []string{"m"},
	})
	rng := rand.New(rand.NewSource(7))
	g := lang.BuildCFG(gen.Program(rng, pool, gen.DefaultConfig(8)))
	a := nullness.New(chainLocals, chainFields)
	ch := dataflow.NewChain[nullness.State](g)
	p := uset.New(0, 3)
	first := ch.Solve(p, a.Initial(), a.Step, nil)
	second := ch.Solve(p, a.Initial(), a.Step, nil)
	if resumed, _, invalidated := ch.Stats(); !resumed || invalidated != 0 {
		t.Fatalf("repeat solve: resumed=%v invalidated=%d, want a clean resume", resumed, invalidated)
	}
	if second != first {
		t.Fatalf("repeat solve did not serve the retained result")
	}
	want := dataflow.SolveBudget(g, a.Initial(), dataflow.At(a.Step, p), nil)
	checkEquiv(t, g, second, want, a.Initial(), dataflow.At(a.Step, p))
}
