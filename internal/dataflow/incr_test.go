package dataflow_test

import (
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"strconv"
	"testing"
	"time"

	"tracer/internal/budget"
	"tracer/internal/dataflow"
	"tracer/internal/escape"
	"tracer/internal/lang"
	"tracer/internal/oracle/gen"
	"tracer/internal/typestate"
	"tracer/internal/uset"
)

// The flip-chain differential suite drives one Chain through a seeded
// random walk over the abstraction lattice — the access pattern the CEGAR
// loop produces — and pins the Chain's advertised contract against a cold
// solve at every step: same discoveries in the same order, same Steps, same
// witness traces. Before every third checked solve the chain first solves
// under a step quota that trips it mid-run, so the checked solve reuses pair
// numbers, memo records and run stamps a tripped run left behind. The
// external test package avoids the dataflow ⇄ client import cycle.

var (
	chainLocals = []string{"u", "v", "w"}
	chainFields = []string{"f", "g"}
	chainSites  = []string{"h1", "h2", "h3"}
	chainVars   = []string{"w", "x", "y", "z"}
)

// chainSeeds reads the flip suites' seed count from CHAIN_FUZZ_N (make fuzz
// runs more seeds) and defaults to n.
func chainSeeds(n int) int64 {
	if v, err := strconv.Atoi(os.Getenv("CHAIN_FUZZ_N")); err == nil && v > 0 {
		return int64(v)
	}
	return int64(n)
}

// randAbs draws a random abstraction over n parameters.
func randAbs(rng *rand.Rand, n int) uset.Set {
	var ks []int
	for k := 0; k < n; k++ {
		if rng.Intn(2) == 0 {
			ks = append(ks, k)
		}
	}
	return uset.New(ks...)
}

// checkEquiv compares a Chain solve against a cold reference solve of the
// same abstraction on the same analysis instance: every node's discovery
// sequence, the step count, and (for every reached fact) a replayable
// witness identical to the cold one.
func checkEquiv[D comparable](t *testing.T, g *lang.CFG, got, want *dataflow.Result[D], init D, tr dataflow.Transfer[D]) {
	t.Helper()
	if got.Steps != want.Steps {
		t.Fatalf("Steps = %d, cold %d", got.Steps, want.Steps)
	}
	for n := 0; n < g.Nodes; n++ {
		gs, ws := got.States(n), want.States(n)
		if !reflect.DeepEqual(gs, ws) {
			t.Fatalf("node %d states = %v, cold %v", n, gs, ws)
		}
		for _, d := range ws {
			gw, ww := got.Witness(n, d), want.Witness(n, d)
			if !reflect.DeepEqual(gw, ww) {
				t.Fatalf("node %d fact %v witness %v, cold %v", n, d, gw, ww)
			}
			if replay := dataflow.EvalTrace(gw, init, tr); replay != d {
				t.Fatalf("node %d witness replays to %v, want %v", n, replay, d)
			}
		}
	}
}

// flipWalk is one flip suite's walk: twelve checked solves of one chain,
// each under the abstraction next draws. Before every third one the chain
// solves the same abstraction under a step quota of half the last run's
// Steps, which trips the run mid-way unless the retained run serves it
// as-is. It returns how many of those solves tripped.
func flipWalk[D comparable](t *testing.T, g *lang.CFG, init D, step dataflow.Step[D], next func() uset.Set) int {
	t.Helper()
	ch := dataflow.NewChain[D](g)
	trips, last := 0, 0
	for i := 0; i < 12; i++ {
		p := next()
		if i%3 == 2 {
			b := budget.New(nil, time.Time{}, int64(max(1, last/2)))
			ch.Solve(p, init, step, b)
			if b.Tripped() {
				trips++
			}
		}
		got := ch.Solve(p, init, step, nil)
		want := dataflow.SolveBudget(g, init, dataflow.At(step, p), nil)
		checkEquiv(t, g, got, want, init, dataflow.At(step, p))
		last = got.Steps
	}
	return trips
}

// requireTrips fails a flip suite whose walks never tripped a run.
func requireTrips(t *testing.T, trips int) {
	t.Helper()
	if trips == 0 {
		t.Error("no solve tripped, so reuse after a trip is untested")
	}
}

func TestChainFlipChainEscape(t *testing.T) {
	pool := gen.Pool(gen.Universe{
		Vars: chainLocals, Sites: chainSites, Fields: chainFields,
		Globals: []string{"G"}, Methods: []string{"m"},
	})
	trips := 0
	for seed := int64(0); seed < chainSeeds(6); seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			g := lang.BuildCFG(gen.Program(rng, pool, gen.DefaultConfig(4+rng.Intn(8))))
			a := escape.New(chainLocals, chainFields, chainSites)
			trips += flipWalk(t, g, a.Initial(), a.Step, func() uset.Set { return randAbs(rng, len(chainSites)) })
		})
	}
	requireTrips(t, trips)
}

func TestChainFlipChainTypestate(t *testing.T) {
	pool := gen.Pool(gen.Universe{
		Vars: chainVars, Sites: []string{"h", "g"}, Fields: []string{"f"},
		Globals: []string{"G"},
		Methods: []string{"open", "close", "connect", "send", "next", "hasNext"},
	})
	trips := 0
	for seed := int64(0); seed < chainSeeds(6); seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			g := lang.BuildCFG(gen.Program(rng, pool, gen.DefaultConfig(4+rng.Intn(8))))
			a := typestate.New(typestate.FileProperty(), "h", chainVars)
			trips += flipWalk(t, g, a.Initial(), a.Step, func() uset.Set { return randAbs(rng, len(chainVars)) })
		})
	}
	requireTrips(t, trips)
}

// TestChainSingleBitWalk flips exactly one parameter per step — the minimal
// CEGAR move and the sharpest test of the invalidation cone: everything the
// flipped parameter never touched must be served from the expansion memo.
func TestChainSingleBitWalk(t *testing.T) {
	pool := gen.Pool(gen.Universe{
		Vars: chainLocals, Sites: chainSites, Fields: chainFields,
		Globals: []string{"G"}, Methods: []string{"m"},
	})
	rng := rand.New(rand.NewSource(42))
	g := lang.BuildCFG(gen.Program(rng, pool, gen.DefaultConfig(10)))
	a := escape.New(chainLocals, chainFields, chainSites)
	ch := dataflow.NewChain[escape.State](g)
	cur := uset.Set(nil)
	for step := 0; step < 16; step++ {
		k := rng.Intn(len(chainSites))
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

// TestChainRepeatedAbstraction re-solves the same abstraction back to back:
// the second solve must take the zero-work fast path and still return the
// full, correct result.
func TestChainRepeatedAbstraction(t *testing.T) {
	pool := gen.Pool(gen.Universe{
		Vars: chainLocals, Sites: chainSites, Fields: chainFields,
		Globals: []string{"G"}, Methods: []string{"m"},
	})
	rng := rand.New(rand.NewSource(7))
	g := lang.BuildCFG(gen.Program(rng, pool, gen.DefaultConfig(8)))
	a := escape.New(chainLocals, chainFields, chainSites)
	ch := dataflow.NewChain[escape.State](g)
	p := uset.New(0, 2)
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

// chainAccountingFixture is an escape program that allocates site h2, then
// site h1, so a flip of h1's parameter leaves the records before that
// allocation clean. Site h9 is never allocated, so no record consults its
// parameter.
func chainAccountingFixture() (*lang.CFG, *escape.Analysis) {
	prog := lang.Seq{
		Fst: lang.Atomic{A: lang.Alloc{V: "v", H: "h2"}},
		Snd: lang.Seq{
			Fst: lang.Choice{Left: lang.Atomic{A: lang.MoveNull{V: "w"}}, Right: lang.Skip{}},
			Snd: lang.Seq{
				Fst: lang.Atomic{A: lang.Alloc{V: "u", H: "h1"}},
				Snd: lang.Atomic{A: lang.GlobalWrite{G: "G", V: "u"}},
			},
		},
	}
	return lang.BuildCFG(prog), escape.New(chainLocals, chainFields, []string{"h1", "h2", "h3", "h9"})
}

// TestChainFastPath re-solves an unchanged abstraction, then flips a
// parameter no record consulted: both solves must hand back the retained
// Result, with every discovery counted as reused and none invalidated.
func TestChainFastPath(t *testing.T) {
	g, a := chainAccountingFixture()
	ch := dataflow.NewChain[escape.State](g)
	p := uset.New(0, 1)
	first := ch.Solve(p, a.Initial(), a.Step, nil)
	for _, q := range []uset.Set{p, uset.New(0, 1, 3)} {
		got := ch.Solve(q, a.Initial(), a.Step, nil)
		if got != first {
			t.Fatalf("abstraction %v did not serve the retained result", q)
		}
		if resumed, reused, invalidated := ch.Stats(); !resumed || reused != first.Steps || invalidated != 0 {
			t.Fatalf("abstraction %v: stats = (%v, %d, %d), want (true, %d, 0)",
				q, resumed, reused, invalidated, first.Steps)
		}
		want := dataflow.SolveBudget(g, a.Initial(), dataflow.At(a.Step, q), nil)
		checkEquiv(t, g, got, want, a.Initial(), dataflow.At(a.Step, q))
	}
}

// TestChainInvalidation flips a consulted parameter: the solve replays from
// the root, serving the records before the flipped allocation from the memo
// and recomputing the one that consulted it.
func TestChainInvalidation(t *testing.T) {
	g, a := chainAccountingFixture()
	ch := dataflow.NewChain[escape.State](g)
	p := uset.New(1)
	ch.Solve(p, a.Initial(), a.Step, nil)
	q := uset.New(0, 1)
	got := ch.Solve(q, a.Initial(), a.Step, nil)
	want := dataflow.SolveBudget(g, a.Initial(), dataflow.At(a.Step, q), nil)
	checkEquiv(t, g, got, want, a.Initial(), dataflow.At(a.Step, q))
	if resumed, reused, invalidated := ch.Stats(); !resumed || reused == 0 || invalidated == 0 {
		t.Fatalf("flip of a consulted parameter: stats = (%v, %d, %d), want a resume with reuse and invalidations",
			resumed, reused, invalidated)
	}
}
