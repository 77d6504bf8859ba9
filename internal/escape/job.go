package escape

import (
	"tracer/internal/client"
	"tracer/internal/formula"
)

// Job poses one thread-escape query on one program as a core.Problem (see
// client.Job).
type Job = client.Job[State, Query, *Analysis]

// NumParams returns the number of allocation sites (the family is 2^H).
func (a *Analysis) NumParams() int { return a.Sites.Len() }

// ParamName names parameter i (the site it maps to L when on).
func (a *Analysis) ParamName(i int) string { return a.Sites.Value(i) }

// At lists the CFG nodes where the query is checked.
func (q Query) At() []int { return q.Nodes }

// Theory returns the literal theory of the thread-escape meta-analysis.
func (a *Analysis) Theory() formula.Theory { return Theory{} }

// ParamLit maps a site literal h.L to parameter h asked on, and h.E to h
// asked off.
func (a *Analysis) ParamLit(pr formula.Prim) (int, bool, bool) {
	if ps, ok := pr.(PSite); ok {
		return a.Sites.ID(ps.H), ps.O == L, true
	}
	return 0, false, false
}
