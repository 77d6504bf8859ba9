// Thread-escape example: the paper's Fig 6, with and without the
// under-approximation operator of §4.1.
//
// The program stores a fresh object into a field of another fresh object
// and asks whether the first is thread-local:
//
//	u = new h1; v = new h2; v.f = u; pc: local(u)?
//
// Without under-approximation (k = 0), a single backward pass computes the
// complete failure condition h1.E ∨ (h1.L ∧ h2.E). With aggressive
// under-approximation (k = 1), the conditions are much smaller (h1.E, then
// h1.L ∧ h2.E) at the cost of one extra CEGAR iteration — the trade-off
// Fig 6 illustrates. Both reach the same cheapest abstraction [h1↦L, h2↦L].
package main

import (
	"fmt"

	"tracer/internal/budget"
	"tracer/internal/core"
	"tracer/internal/dataflow"
	"tracer/internal/escape"
	"tracer/internal/lang"
	"tracer/internal/meta"
	"tracer/internal/uset"
)

func main() {
	prog := lang.Atoms(
		lang.Alloc{V: "u", H: "h1"},
		lang.Alloc{V: "v", H: "h2"},
		lang.Store{Dst: "v", F: "f", Src: "u"},
	)
	fmt.Println("Program (Fig 6):")
	fmt.Print(lang.Format(prog))
	fmt.Println("pc: local(u)?")

	g := lang.BuildCFG(prog)
	locals, fields, sites := escape.Universe(g)
	a := escape.New(locals, fields, sites)
	q := escape.Query{Nodes: []int{g.Exit}, V: "u"}

	for _, k := range []int{0, 1} {
		label := fmt.Sprintf("k = %d", k)
		if k == 0 {
			label = "no under-approximation (Fig 6a)"
		} else {
			label = "k = 1 (Fig 6b)"
		}
		fmt.Printf("\n=== %s ===\n", label)
		job := &escape.Job{A: a, G: g, Q: q, K: k}
		iter := 0
		problem := &verbose{job: job, a: a, iter: &iter}
		res, err := core.Solve(problem, core.Options{})
		if err != nil {
			panic(err)
		}
		if res.Status != core.Proved {
			fmt.Printf("unexpected status %v\n", res.Status)
			continue
		}
		names := []string{}
		for _, h := range res.Abstraction.Elems() {
			names = append(names, a.Sites.Value(h)+"↦L")
		}
		fmt.Printf("PROVED with cheapest abstraction %v after %d iterations\n", names, res.Iterations)
	}
}

// verbose wraps the job to print the α/ψ annotations of Fig 6.
type verbose struct {
	job  *escape.Job
	a    *escape.Analysis
	iter *int
}

func (v *verbose) NumParams() int { return v.job.NumParams() }

func (v *verbose) Forward(b *budget.Budget, p uset.Set) core.Outcome {
	*v.iter++
	mapped := []string{}
	for i := 0; i < v.a.Sites.Len(); i++ {
		o := "E"
		if p.Has(i) {
			o = "L"
		}
		mapped = append(mapped, fmt.Sprintf("%s↦%s", v.a.Sites.Value(i), o))
	}
	fmt.Printf("\niteration %d: forward analysis with p = %v\n", *v.iter, mapped)
	out := v.job.Forward(b, p)
	if out.Proved {
		fmt.Println("  query proven")
	}
	return out
}

func (v *verbose) Backward(_ *budget.Budget, p uset.Set, t lang.Trace) []core.ParamCube {
	dI := v.a.Initial()
	states := dataflow.StatesAlong(t, dI, dataflow.At(v.a.Step, p))
	ann := meta.RunAnnotated(v.job.Client(p), t, states, v.a.NotQ(v.job.Q))
	fmt.Println("  counterexample trace (α = forward state, ψ = failure condition):")
	fmt.Printf("    %-16s α %-24s ψ %s\n", "", v.a.Format(states[0]), ann[0])
	for i, atom := range t {
		fmt.Printf("    %-16s α %-24s ψ %s\n", atom.String()+";", v.a.Format(states[i+1]), ann[i+1])
	}
	cubes := v.job.Cubes(ann[0], dI)
	for _, c := range cubes {
		fmt.Printf("  eliminated: %s\n", describe(v.a, c))
	}
	return cubes
}

func describe(a *escape.Analysis, c core.ParamCube) string {
	out := "every p"
	for _, h := range c.Pos.Elems() {
		out += fmt.Sprintf(" with %s↦L", a.Sites.Value(h))
	}
	for _, h := range c.Neg.Elems() {
		out += fmt.Sprintf(" with %s↦E", a.Sites.Value(h))
	}
	return out
}
