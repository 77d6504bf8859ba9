// Package explain instruments a TRACER problem so that every CEGAR
// iteration is narrated the way the paper's Figs 1 and 6 are drawn: the
// abstract counterexample trace annotated with the forward states (α) and
// the backward meta-analysis's failure conditions (ψ), followed by the
// eliminated abstraction cubes. cmd/tracer's -explain flag and the
// examples use it.
package explain

import (
	"fmt"
	"io"
	"strings"

	"tracer/internal/budget"
	"tracer/internal/core"
	"tracer/internal/dataflow"
	"tracer/internal/formula"
	"tracer/internal/lang"
	"tracer/internal/meta"
	"tracer/internal/uset"
)

// coreCube aliases the cube type for the per-client constructors.
type coreCube = core.ParamCube

// Hooks supplies the analysis-specific pieces the narrator needs. D is the
// forward analysis's abstract state type.
type Hooks[D comparable] struct {
	// Initial is dI.
	Initial D
	// Step is the forward transfer function.
	Step dataflow.Step[D]
	// Client builds the meta-analysis client for p.
	Client func(p uset.Set) *meta.Client[D]
	// Post is the failure condition not(q).
	Post formula.Formula
	// FormatState renders an abstract state (the α annotations).
	FormatState func(D) string
	// FormatAbstraction renders an abstraction (e.g. variable names).
	FormatAbstraction func(uset.Set) string
	// Cubes projects a failure-condition DNF onto parameter cubes.
	Cubes func(dnf formula.DNF, dI D) []core.ParamCube
	// DescribeCube renders one eliminated cube.
	DescribeCube func(core.ParamCube) string
}

// Problem wraps a core.Problem, writing a narration of every iteration to
// W. It implements core.Problem and is otherwise transparent: outcomes and
// learned cubes are exactly the inner problem's.
type Problem[D comparable] struct {
	Inner core.Problem
	W     io.Writer
	H     Hooks[D]

	iteration int
}

// New builds a narrated problem.
func New[D comparable](inner core.Problem, w io.Writer, h Hooks[D]) *Problem[D] {
	return &Problem[D]{Inner: inner, W: w, H: h}
}

// NumParams delegates to the inner problem.
func (p *Problem[D]) NumParams() int { return p.Inner.NumParams() }

// Forward narrates the chosen abstraction, then delegates.
func (p *Problem[D]) Forward(b *budget.Budget, abs uset.Set) core.Outcome {
	p.iteration++
	fmt.Fprintf(p.W, "\niteration %d: forward analysis with p = %s\n", p.iteration, p.H.FormatAbstraction(abs))
	out := p.Inner.Forward(b, abs)
	if out.Proved {
		fmt.Fprintf(p.W, "  query proven\n")
	}
	return out
}

// Backward recomputes the annotated backward pass for display, then
// delegates to the inner problem for the actual cubes. The recomputed cubes
// are expected to match the inner result (the meta-analysis is
// deterministic), but that identity is verified rather than trusted: if the
// narrated pass diverges from what the solver actually learned — a
// mismatched wrapper, a stateful inner problem, a drifted hook — an
// explicit warning is printed instead of silently narrating the wrong pass.
func (p *Problem[D]) Backward(b *budget.Budget, abs uset.Set, t lang.Trace) []core.ParamCube {
	states := dataflow.StatesAlong(t, p.H.Initial, dataflow.At(p.H.Step, abs))
	ann := meta.RunAnnotated(p.H.Client(abs), t, states, p.H.Post)
	fmt.Fprintf(p.W, "  counterexample trace (α = forward state, ψ = failure condition):\n")
	fmt.Fprintf(p.W, "    %-28s α %-30s ψ %s\n", "", p.H.FormatState(states[0]), ann[0])
	for i, atom := range t {
		fmt.Fprintf(p.W, "    %-28s α %-30s ψ %s\n", atom.String()+";", p.H.FormatState(states[i+1]), ann[i+1])
	}
	narrated := p.H.Cubes(ann[0], p.H.Initial)
	for _, c := range narrated {
		fmt.Fprintf(p.W, "  eliminated: %s\n", p.H.DescribeCube(c))
	}
	cubes := p.Inner.Backward(b, abs, t)
	if !sameCubes(narrated, cubes) {
		fmt.Fprintf(p.W, "  WARNING: narration diverges from the solver's backward pass\n")
		fmt.Fprintf(p.W, "    narrated cubes: %s\n", renderCubes(narrated))
		fmt.Fprintf(p.W, "    solver learned: %s\n", renderCubes(cubes))
	}
	return cubes
}

// sameCubes reports whether the two cube sequences are identical (same
// cubes, same order — the meta-analysis is deterministic, so a faithful
// narration reproduces the order too).
func sameCubes(a, b []core.ParamCube) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].Pos.Equal(b[i].Pos) || !a[i].Neg.Equal(b[i].Neg) {
			return false
		}
	}
	return true
}

// renderCubes renders a cube sequence in the solver's raw parameter-index
// form (the client DescribeCube hooks are skipped: a divergence may involve
// indices outside the client's vocabulary).
func renderCubes(cs []core.ParamCube) string {
	if len(cs) == 0 {
		return "(none)"
	}
	parts := make([]string, len(cs))
	for i, c := range cs {
		parts[i] = c.String()
	}
	return strings.Join(parts, "; ")
}

// Solve runs TRACER on the narrated problem and prints the verdict. A query
// that reaches opts.MaxIters ends on a failing forward run the loop does not
// analyze backward, so the last iteration narrates its forward run only.
func (p *Problem[D]) Solve(opts core.Options) (core.Result, error) {
	res, err := core.Solve(p, opts)
	if err != nil {
		return res, err
	}
	switch res.Status {
	case core.Proved:
		fmt.Fprintf(p.W, "PROVED with cheapest abstraction p = %s after %d iterations\n",
			p.H.FormatAbstraction(res.Abstraction), res.Iterations)
	case core.Impossible:
		fmt.Fprintf(p.W, "IMPOSSIBLE: no abstraction in the family proves the query (%d iterations)\n", res.Iterations)
	case core.Failed:
		fmt.Fprintf(p.W, "FAILED: %s (%d iterations)\n", res.Failure, res.Iterations)
	default:
		if res.Tripped {
			fmt.Fprintf(p.W, "UNRESOLVED: budget exhausted after %d iterations\n", res.Iterations)
		} else {
			fmt.Fprintf(p.W, "UNRESOLVED: iteration cap reached after %d iterations\n", res.Iterations)
		}
	}
	return res, nil
}
