package nullness

import (
	"tracer/internal/client"
	"tracer/internal/formula"
)

// Job poses one null-dereference query on one program as a core.Problem
// (see client.Job).
type Job = client.Job[State, Query, *Analysis]

// At lists the CFG nodes where the query is checked.
func (q Query) At() []int { return q.Nodes }

// Theory returns the literal theory of the nullness meta-analysis.
func (a *Analysis) Theory() formula.Theory { return Theory{} }

// ParamLit maps a track literal to the cell it tracks, asked on or off as
// the literal says.
func (a *Analysis) ParamLit(pr formula.Prim) (int, bool, bool) {
	switch pr := pr.(type) {
	case PTrackVar:
		return a.localSlot(pr.V), pr.On, true
	case PTrackField:
		return a.fieldSlot(pr.F), pr.On, true
	}
	return 0, false, false
}
