package driver

import (
	"sync/atomic"

	"tracer/internal/budget"
	"tracer/internal/client"
	"tracer/internal/core"
	"tracer/internal/dataflow"
	"tracer/internal/lang"
	"tracer/internal/obs"
	"tracer/internal/rhs"
	"tracer/internal/uset"
)

// RHSJob poses one query against the summary-based tabulation backend,
// which also handles recursive call graphs. The backward meta-analysis is
// the inline job's: both engines produce flat counterexample traces of the
// same atoms, so RHSJob reads only Inner's analysis and query, never its
// CFG or nodes.
type RHSJob[D comparable, Q client.Query, A client.Analysis[D, Q]] struct {
	G      *rhs.Graph
	Points []rhs.Point
	Inner  *client.Job[D, Q, A]
	// NoDelta disables the delta-incremental tabulation chain; every forward
	// solve then runs cold.
	NoDelta bool

	// rec, when set, receives the tabulation solver's per-run counters and
	// timings (see rhs.SolveBudget).
	rec   obs.Recorder
	chain atomic.Pointer[rhs.Chain[D]]
}

func (j *RHSJob[D, Q, A]) NumParams() int         { return j.Inner.NumParams() }
func (j *RHSJob[D, Q, A]) ParamName(i int) string { return j.Inner.ParamName(i) }

// Observe routes the tabulation solver's telemetry to rec.
func (j *RHSJob[D, Q, A]) Observe(rec obs.Recorder) { j.rec = rec }

// Forward solves the supergraph under abstraction p, resuming the job's
// retained tabulation across CEGAR iterations unless NoDelta is set, and
// reports the chain's delta accounting in the Outcome. The chain is checked
// out for the duration of the solve (a panic abandons it; the next
// iteration starts a fresh one).
func (j *RHSJob[D, Q, A]) Forward(b *budget.Budget, p uset.Set) core.Outcome {
	a := j.Inner.A
	if j.NoDelta {
		return j.scan(rhs.SolveBudget(j.G, a.Initial(), dataflow.At(a.Step, p), j.rec, b), b)
	}
	ch := j.chain.Swap(nil)
	if ch == nil {
		ch = rhs.NewChain[D](j.G)
	}
	out := j.scan(ch.Solve(p, a.Initial(), a.Step, j.rec, b), b)
	out.Resumed, out.Reused, out.Invalidated = ch.Stats()
	j.chain.Store(ch)
	return out
}

// scan checks the query points of a tabulation, picking the first violating
// fact in tabulation (discovery) order — a pure function of the supergraph
// and the abstraction, independent of the analysis instance's intern
// history, so the choice is stable between cold and delta-incremental
// solves. A budget trip mid-tabulation yields an unproved partial outcome
// (a partial tabulation's "no failure found" is not a proof).
func (j *RHSJob[D, Q, A]) scan(res *rhs.Result[D], b *budget.Budget) core.Outcome {
	if b.Tripped() {
		return core.Outcome{Steps: res.Steps}
	}
	a, q := j.Inner.A, j.Inner.Q
	for _, pt := range j.Points {
		for _, d := range res.States(pt.Method, pt.Node) {
			if !a.Holds(q, d) {
				return core.Outcome{Trace: res.Witness(pt.Method, pt.Node, d), Steps: res.Steps}
			}
		}
	}
	return core.Outcome{Proved: true, Steps: res.Steps}
}

// Backward delegates to the inlining job.
func (j *RHSJob[D, Q, A]) Backward(b *budget.Budget, p uset.Set, t lang.Trace) []core.ParamCube {
	return j.Inner.Backward(b, p, t)
}

// rhsJob poses inner's query at points of the supergraph g; noDelta
// selects the cold forward executor.
func rhsJob[D comparable, Q client.Query, A client.Analysis[D, Q]](g *rhs.Graph, points []rhs.Point, inner core.Problem, noDelta bool) core.Problem {
	return &RHSJob[D, Q, A]{G: g, Points: points, Inner: inner.(*client.Job[D, Q, A]), NoDelta: noDelta}
}
