package dataflow

import (
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"tracer/internal/lang"
	"tracer/internal/uset"
)

// The mock analysis: states are small ints; atoms act as functions chosen
// by variable name. "a = null" maps s→min(s+1,3); "b = null" maps s→0;
// invoke toggles parity. The domain is finite (0..3), as §3.2 requires.
func mockTransfer(a lang.Atom, d int) int {
	switch at := a.(type) {
	case lang.MoveNull:
		if at.V == "a" {
			if d < 3 {
				return d + 1
			}
			return 3
		}
		return 0
	case lang.Invoke:
		return d ^ 1
	}
	return d
}

func randProg(rng *rand.Rand, depth int) lang.Prog {
	atoms := []lang.Atom{
		lang.MoveNull{V: "a"}, lang.MoveNull{V: "b"}, lang.Invoke{V: "x", M: "m"},
	}
	if depth == 0 || rng.Intn(3) == 0 {
		return lang.Atomic{A: atoms[rng.Intn(len(atoms))]}
	}
	switch rng.Intn(4) {
	case 0:
		return lang.Seq{Fst: randProg(rng, depth-1), Snd: randProg(rng, depth-1)}
	case 1:
		return lang.Choice{Left: randProg(rng, depth-1), Right: randProg(rng, depth-1)}
	case 2:
		return lang.Star{Body: randProg(rng, depth-1)}
	default:
		return lang.Atomic{A: atoms[rng.Intn(len(atoms))]}
	}
}

// TestSolveMatchesEvalProg: the CFG worklist solver computes exactly
// Fp[s]({dI}) of the structured evaluator (Fig 3) at the exit node.
func TestSolveMatchesEvalProg(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 300; trial++ {
		p := randProg(rng, 4)
		g := lang.BuildCFG(p)
		want := EvalProg(p, map[int]bool{0: true}, mockTransfer)
		res := SolveBudget(g, 0, mockTransfer, nil)
		got := map[int]bool{}
		for _, d := range res.States(g.Exit) {
			got[d] = true
		}
		if len(got) != len(want) {
			t.Fatalf("program %s: got %v want %v", p, got, want)
		}
		for d := range want {
			if !got[d] {
				t.Fatalf("program %s: missing state %d (got %v)", p, d, got)
			}
		}
	}
}

// TestWitnessReplay: for every reachable (node, state), replaying the
// witness trace through the transfer function reproduces the state — the
// executable content of Lemma 1.
func TestWitnessReplay(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for trial := 0; trial < 200; trial++ {
		p := randProg(rng, 4)
		g := lang.BuildCFG(p)
		res := SolveBudget(g, 0, mockTransfer, nil)
		for n := 0; n < g.Nodes; n++ {
			for _, d := range res.States(n) {
				tr := res.Witness(n, d)
				if got := EvalTrace(tr, 0, mockTransfer); got != d {
					t.Fatalf("witness %q replays to %d, want %d", tr, got, d)
				}
			}
		}
	}
}

// TestWitnessIsProgramTrace: witnesses for exit states are prefixes of real
// program traces (they follow CFG edges), so the meta-analysis may treat
// them as members of trace(s).
func TestWitnessIsProgramTrace(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 100; trial++ {
		p := randProg(rng, 3)
		g := lang.BuildCFG(p)
		res := SolveBudget(g, 0, mockTransfer, nil)
		for _, d := range res.States(g.Exit) {
			tr := res.Witness(g.Exit, d)
			// The trace must be spelled by some entry→exit CFG path.
			if !accepts(g, tr) {
				t.Fatalf("witness %q is not a CFG path of %s", tr, p)
			}
		}
	}
}

func accepts(g *lang.CFG, tr lang.Trace) bool {
	type state struct{ node, pos int }
	seen := map[state]bool{}
	stack := []state{{g.Entry, 0}}
	seen[stack[0]] = true
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if s.node == g.Exit && s.pos == len(tr) {
			return true
		}
		for _, ei := range g.Out[s.node] {
			e := g.Edges[ei]
			var next state
			if e.A == nil {
				next = state{e.To, s.pos}
			} else if s.pos < len(tr) && e.A == tr[s.pos] {
				next = state{e.To, s.pos + 1}
			} else {
				continue
			}
			if !seen[next] {
				seen[next] = true
				stack = append(stack, next)
			}
		}
	}
	return false
}

// TestLemma1 checks the paper's Lemma 1 on loop-free programs exactly
// (Fp[s]({d}) = {Fp[t](d) | t ∈ trace(s)}) and as an over-approximation
// check under bounded unrolling for programs with loops (every bounded
// trace's result is included in the fixpoint).
func TestLemma1(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for trial := 0; trial < 60; trial++ {
		p := randProg(rng, 2)
		full := EvalProg(p, map[int]bool{0: true}, mockTransfer)
		traces := lang.Traces(p, 7, 150)
		viaTraces := map[int]bool{}
		for _, tr := range traces {
			viaTraces[EvalTrace(tr, 0, mockTransfer)] = true
		}
		// Soundness direction: trace results are always in the fixpoint.
		for d := range viaTraces {
			if !full[d] {
				t.Fatalf("program %s: trace result %d missing from Fp[s]", p, d)
			}
		}
		// Exactness for loop-free programs.
		if !hasLoop(p) {
			for d := range full {
				if !viaTraces[d] {
					t.Fatalf("loop-free program %s: fixpoint state %d has no witness trace", p, d)
				}
			}
		}
	}
}

func hasLoop(p lang.Prog) bool {
	switch p := p.(type) {
	case lang.Star:
		return true
	case lang.Seq:
		return hasLoop(p.Fst) || hasLoop(p.Snd)
	case lang.Choice:
		return hasLoop(p.Left) || hasLoop(p.Right)
	default:
		return false
	}
}

// TestStatesAlong returns the pre-state sequence.
func TestStatesAlong(t *testing.T) {
	tr := lang.Trace{lang.MoveNull{V: "a"}, lang.MoveNull{V: "a"}, lang.MoveNull{V: "b"}}
	states := StatesAlong(tr, 0, mockTransfer)
	want := []int{0, 1, 2, 0}
	if len(states) != len(want) {
		t.Fatalf("len = %d", len(states))
	}
	for i := range want {
		if states[i] != want[i] {
			t.Fatalf("states = %v, want %v", states, want)
		}
	}
}

// TestWitnessPanicsOnUnreached: asking for a witness of an unreached state
// is a programming error and must fail loudly.
func TestWitnessPanicsOnUnreached(t *testing.T) {
	g := lang.BuildCFG(lang.Atoms(lang.MoveNull{V: "a"}))
	res := SolveBudget(g, 0, mockTransfer, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	res.Witness(g.Exit, 99)
}

// TestStepsCountsDiscoveries: Steps equals the number of distinct
// (node, state) pairs found.
func TestStepsCountsDiscoveries(t *testing.T) {
	p := lang.Choice{Left: lang.Atoms(lang.MoveNull{V: "a"}), Right: lang.Atoms(lang.MoveNull{V: "b"})}
	g := lang.BuildCFG(p)
	res := SolveBudget(g, 1, mockTransfer, nil)
	total := 0
	for n := 0; n < g.Nodes; n++ {
		total += len(res.States(n))
	}
	if res.Steps != total {
		t.Fatalf("Steps = %d, want %d", res.Steps, total)
	}
}

// reads returns a step that reads parameters ks in order and returns how
// many of them were on.
func reads(ks ...int) Step[int] {
	return func(r *Params, _ lang.Atom, _ int) int {
		on := 0
		for _, k := range ks {
			if r.Has(k) {
				on++
			}
		}
		return on
	}
}

// TestParamsRecordsRead: the reader records the signed literal of the one
// parameter an application reads, and nothing when it reads none.
func TestParamsRecordsRead(t *testing.T) {
	r := NewParams(ParamWords(uset.New(2)))
	for _, c := range []struct {
		name string
		step Step[int]
		next int
		lit  int32
	}{
		{"on", reads(2), 1, 3},
		{"off", reads(1), 0, -2},
		{"same-twice", reads(2, 2), 2, 3},
		{"none", reads(), 0, 0},
		{"beyond-top", reads(70), 0, -71},
	} {
		next, lit := Apply(r, c.step, lang.MoveNull{V: "x"}, 0)
		if next != c.next || lit != c.lit {
			t.Errorf("%s: Apply = (%d, %d), want (%d, %d)", c.name, next, lit, c.next, c.lit)
		}
	}
}

// TestParamsSecondReadPanics: an application that reads a second, different
// parameter panics and names both. Each application starts afresh, so one
// Transfer may read a different parameter on every atom.
func TestParamsSecondReadPanics(t *testing.T) {
	perAtom := func(r *Params, a lang.Atom, d int) int {
		if a.(lang.MoveNull).V == "x" {
			r.Has(1)
		} else {
			r.Has(3)
		}
		return d
	}
	tr := At(perAtom, uset.New(1))
	tr(lang.MoveNull{V: "x"}, 0)
	tr(lang.MoveNull{V: "y"}, 0)
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "parameters 1 and 3") {
			t.Fatalf("panic %q; want one naming parameters 1 and 3", msg)
		}
	}()
	At(reads(1, 3), uset.New(1))(lang.MoveNull{V: "x"}, 0)
	t.Fatal("a read of a second parameter did not panic")
}

// TestChainGenerationWrap: a chain keeps one pair table for its life and
// tells its runs apart by a generation stamp. When the generation wraps, the
// stamps of earlier runs are cleared, so a run after the wrap discovers what
// a cold solve discovers and nothing an earlier run stamped. The test runs
// generation 1, then the last generation, then wraps; clearing complete
// makes each solve a replay rather than the fast path.
func TestChainGenerationWrap(t *testing.T) {
	// "a = null" steps the state only while parameter 0 is on.
	step := func(r *Params, a lang.Atom, d int) int {
		if m, ok := a.(lang.MoveNull); ok && m.V == "a" && !r.Has(0) {
			return d
		}
		return mockTransfer(a, d)
	}
	rng := rand.New(rand.NewSource(25))
	for trial := 0; trial < 100; trial++ {
		g := lang.BuildCFG(randProg(rng, 4))
		ch := NewChain[int](g)
		for i, p := range []uset.Set{uset.New(0), nil, uset.New(0)} {
			if i == 1 {
				ch.res.run = math.MaxUint32 - 1
			}
			ch.complete = false
			got := ch.Solve(p, 0, step, nil)
			want := SolveBudget(g, 0, At(step, p), nil)
			if got.Steps != want.Steps {
				t.Fatalf("trial %d, solve %d: Steps = %d, cold %d", trial, i, got.Steps, want.Steps)
			}
			for n := 0; n < g.Nodes; n++ {
				gs, ws := got.States(n), want.States(n)
				if !slices.Equal(gs, ws) {
					t.Fatalf("trial %d, solve %d: node %d states = %v, cold %v", trial, i, n, gs, ws)
				}
				for _, d := range ws {
					if gw, ww := got.Witness(n, d), want.Witness(n, d); !slices.Equal(gw, ww) {
						t.Fatalf("trial %d, solve %d: node %d fact %d witness %v, cold %v", trial, i, n, d, gw, ww)
					}
				}
			}
		}
	}
}
