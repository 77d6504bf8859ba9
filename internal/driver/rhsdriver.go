package driver

import (
	"fmt"
	"sort"
	"sync/atomic"

	"tracer/internal/budget"
	"tracer/internal/client"
	"tracer/internal/core"
	"tracer/internal/escape"
	"tracer/internal/ir"
	"tracer/internal/lang"
	"tracer/internal/nullness"
	"tracer/internal/obs"
	"tracer/internal/pointsto"
	"tracer/internal/rhs"
	"tracer/internal/typestate"
	"tracer/internal/uset"
)

// RHSProgram is a program prepared with the summary-based tabulation
// backend instead of the inlining lowering. It supports recursive call
// graphs; everything else — query generation, the backward meta-analysis,
// and TRACER — is shared with the inlining pipeline, since both produce
// flat counterexample traces over the same atoms.
type RHSProgram struct {
	base
	SP *rhs.Program
}

// LoadRHS parses src and prepares the tabulation pipeline.
func LoadRHS(src string) (*RHSProgram, error) {
	prog, err := ir.Parse(src)
	if err != nil {
		return nil, err
	}
	pt, err := pointsto.Analyze(prog)
	if err != nil {
		return nil, err
	}
	sp, err := rhs.FromIR(prog, pt)
	if err != nil {
		return nil, err
	}
	called := map[string]bool{}
	for _, cs := range sp.Calls {
		if !isLib(cs.Method) {
			called[cs.Stmt.Method] = true
		}
	}
	return &RHSProgram{base: newBase(prog, pt, sp.G.AtomsCFG(), called), SP: sp}, nil
}

// RHSQuery is a generated query for the tabulation backend: Site is the
// tracked site of a type-state query, Var the base variable of an escape or
// nullness query. With the supergraph, each source statement has exactly
// one point.
type RHSQuery struct {
	ID     string
	Site   string
	Var    string
	Stmt   ir.Stmt
	Points []rhs.Point
}

// TypestateQueries generates the §6 stress queries: one per (application
// call site, application site the receiver may reach).
func (p *RHSProgram) TypestateQueries() []RHSQuery {
	appSite := appSites(p.IR)
	var out []RHSQuery
	for _, cs := range p.SP.Calls {
		if isLib(cs.Method) {
			continue
		}
		for _, hid := range p.varPts[cs.Recv].Elems() {
			h := p.PT.Sites.Value(hid)
			if !appSite[h] {
				continue
			}
			out = append(out, RHSQuery{
				ID:     fmt.Sprintf("ts:%s:%s:%s", cs.Method.QualName(), cs.Stmt.Position(), h),
				Site:   h,
				Stmt:   cs.Stmt,
				Points: []rhs.Point{cs.At},
			})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// EscapeQueries generates one query per application field access.
func (p *RHSProgram) EscapeQueries() []RHSQuery { return p.accessQueries("esc") }

// NullnessQueries generates one query per application field access: the
// dereferenced base must be non-nil at the access point.
func (p *RHSProgram) NullnessQueries() []RHSQuery { return p.accessQueries("null") }

func (p *RHSProgram) accessQueries(prefix string) []RHSQuery {
	var out []RHSQuery
	for _, fa := range p.SP.Accesses {
		if isLib(fa.Method) {
			continue
		}
		out = append(out, RHSQuery{
			ID:     fmt.Sprintf("%s:%s:%s:%s", prefix, fa.Method.QualName(), fa.Stmt.Position(), fa.Base),
			Var:    fa.Base,
			Stmt:   fa.Stmt,
			Points: []rhs.Point{fa.At},
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// RHSJob poses one query against the summary-based tabulation backend,
// which also handles recursive call graphs. The backward meta-analysis is
// the inlining job's: both backends produce flat counterexample traces of
// the same atoms, so Inner needs no CFG.
type RHSJob[D comparable, Q client.Query, A client.Analysis[D, Q]] struct {
	G      *rhs.Graph
	Points []rhs.Point
	Inner  *client.Job[D, Q, A]
	// NoDelta disables the delta-incremental tabulation chain; every forward
	// solve then runs cold.
	NoDelta bool

	// rec, when set, receives the tabulation solver's per-run counters and
	// timings (see rhs.SolveObs).
	rec   obs.Recorder
	chain atomic.Pointer[rhs.Chain[D]]
}

func (j *RHSJob[D, Q, A]) NumParams() int         { return j.Inner.NumParams() }
func (j *RHSJob[D, Q, A]) ParamName(i int) string { return j.Inner.ParamName(i) }

// Observe routes the tabulation solver's telemetry to rec.
func (j *RHSJob[D, Q, A]) Observe(rec obs.Recorder) { j.rec = rec }

// Forward solves the supergraph under abstraction p, resuming the job's
// retained tabulation across CEGAR iterations unless NoDelta is set. The
// chain is checked out for the duration of the solve (a panic abandons it;
// the next iteration starts a fresh one).
func (j *RHSJob[D, Q, A]) Forward(b *budget.Budget, p uset.Set) core.Outcome {
	a := j.Inner.A
	if j.NoDelta {
		return j.scan(rhs.SolveBudget(j.G, a.Initial(), a.Transfer(p), j.rec, b), b)
	}
	ch := j.chain.Swap(nil)
	if ch == nil {
		ch = rhs.NewChain[D](j.G)
	}
	out := j.scan(ch.Solve(p, a.Initial(), a.TransferDep(p), j.rec, b), b)
	if resumed, reused, _ := ch.Stats(); resumed {
		out.Reused = reused
	}
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

// newRHSJob poses inner's query at points of the program's supergraph.
func newRHSJob[D comparable, Q client.Query, A client.Analysis[D, Q]](p *RHSProgram, points []rhs.Point, inner *client.Job[D, Q, A]) *RHSJob[D, Q, A] {
	return &RHSJob[D, Q, A]{G: p.SP.G, Points: points, Inner: inner}
}

// typestateJob builds a tabulation job for the given property, tracked
// site, and wanted automaton states.
func (p *RHSProgram) typestateJob(prop *typestate.Property, site string, want uset.Bits, points []rhs.Point, k int) *RHSJob[typestate.State, typestate.Query, *typestate.Analysis] {
	return newRHSJob(p, points, &typestate.Job{A: p.siteAnalysis(prop, site), Q: typestate.Query{Want: want}, K: k})
}

// escapeJob builds a tabulation job asking whether v is thread-local.
func (p *RHSProgram) escapeJob(v string, points []rhs.Point, k int) *RHSJob[escape.State, escape.Query, *escape.Analysis] {
	return newRHSJob(p, points, &escape.Job{A: p.escapeAnalysis(""), Q: escape.Query{V: v}, K: k})
}

// TypestateJob builds the tabulation job for a generated stress query. Like
// the inlining driver's generated queries, it shares the program's
// type-state caches of its tracked site.
func (p *RHSProgram) TypestateJob(q RHSQuery, k int) *RHSJob[typestate.State, typestate.Query, *typestate.Analysis] {
	prop := typestate.StressProperty(p.stressMethods)
	j := p.typestateJob(prop, q.Site, uset.Bits(0).Add(prop.Init), q.Points, k)
	j.Inner.Uni, j.Inner.WPC = p.tsCaches.Part(q.Site)
	return j
}

// EscapeJob builds the tabulation job for a generated escape query, sharing
// the program's escape caches.
func (p *RHSProgram) EscapeJob(q RHSQuery, k int) *RHSJob[escape.State, escape.Query, *escape.Analysis] {
	j := p.escapeJob(q.Var, q.Points, k)
	j.Inner.Uni, j.Inner.WPC = p.escCaches.Part("")
	return j
}

// NullnessJob builds the tabulation job for a generated nullness query,
// sharing the program's nullness caches.
func (p *RHSProgram) NullnessJob(q RHSQuery, k int) *RHSJob[nullness.State, nullness.Query, *nullness.Analysis] {
	j := newRHSJob(p, q.Points, &nullness.Job{A: p.nullnessAnalysis(""), Q: nullness.Query{V: q.Var}, K: k})
	j.Inner.Uni, j.Inner.WPC = p.nullCaches.Part("")
	return j
}

// ExplicitJobs builds jobs for the program's explicit query statements:
// "query name local(v)" and, against prop, "query name state(v: ...)"
// (keyed "name@site" per may-site like the inlining driver). Each job fills
// caches of its own.
func (p *RHSProgram) ExplicitJobs(prop *typestate.Property, k int) (map[string]core.Problem, error) {
	out := map[string]core.Problem{}
	escPoints := map[string][]rhs.Point{}
	escVar := map[string]string{}
	for _, q := range p.SP.Queries {
		switch q.Kind {
		case ir.QueryLocal:
			escPoints[q.Name] = append(escPoints[q.Name], q.At)
			escVar[q.Name] = q.Var
		case ir.QueryTypestate:
			want, err := wantStates(prop, q.Name, q.States)
			if err != nil {
				return nil, err
			}
			for _, hid := range p.varPts[q.Var].Elems() {
				h := p.PT.Sites.Value(hid)
				key := q.Name + "@" + h
				job, ok := out[key].(*RHSJob[typestate.State, typestate.Query, *typestate.Analysis])
				if !ok {
					job = p.typestateJob(prop, h, want, nil, k)
					out[key] = job
				}
				job.Points = append(job.Points, q.At)
			}
		}
	}
	for name, points := range escPoints {
		out[name] = p.escapeJob(escVar[name], points, k)
	}
	return out, nil
}
