package typestate

import (
	"tracer/internal/client"
	"tracer/internal/formula"
)

// Job poses one type-state query on one program as a core.Problem (see
// client.Job).
type Job = client.Job[State, Query, *Analysis]

// NumParams returns the number of variables in the abstraction family 2^V.
func (a *Analysis) NumParams() int { return a.Vars.Len() }

// ParamName names parameter i (the variable it tracks).
func (a *Analysis) ParamName(i int) string { return a.Vars.Value(i) }

// Holds reports whether a single abstract state satisfies the query.
func (a *Analysis) Holds(q Query, d State) bool { return q.Holds(d) }

// At lists the CFG nodes where the query is checked.
func (q Query) At() []int { return q.Nodes }

// Theory returns the literal theory of the type-state meta-analysis.
func (a *Analysis) Theory() formula.Theory { return Theory{} }

// ParamLit maps the literal x∈p to parameter x, asked on.
func (a *Analysis) ParamLit(pr formula.Prim) (int, bool, bool) {
	if pp, ok := pr.(PParam); ok {
		return a.varID(pp.X), true, true
	}
	return 0, false, false
}
