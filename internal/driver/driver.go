// Package driver ties the front end together: it parses a mini-IR program,
// runs the 0-CFA points-to analysis, lowers the program onto a supergraph
// and inlines that into a single CFG, and generates queries for either
// forward engine the way the paper's evaluation does (§6):
// a type-state query at each method call site (pc, h), and a thread-escape
// query at each instance-field access (pc, v), restricted to application
// code (classes whose names start with "Lib" play the role of the JDK).
package driver

import (
	"fmt"
	"hash/fnv"
	"slices"
	"sort"
	"strings"

	"tracer/internal/client"
	"tracer/internal/core"
	"tracer/internal/escape"
	"tracer/internal/ir"
	"tracer/internal/lang"
	"tracer/internal/nullness"
	"tracer/internal/pointsto"
	"tracer/internal/rhs"
	"tracer/internal/typestate"
	"tracer/internal/uset"
)

// LibPrefix marks library classes, excluded from query generation but fully
// analyzed, mirroring how the paper poses no queries inside the JDK.
const LibPrefix = "Lib"

// Program is a loaded and points-to-analyzed program, lowered once onto a
// supergraph (SP), on which the RHS engine runs, and, unless it was loaded
// with LoadRHS, inlined from there into one CFG (Inl), on which the inline
// engine runs. Every query it generates or reads from an explicit query
// statement names its point on both, so either engine can answer it.
//
// A Program is safe to share between goroutines. Prepare builds every table
// derived from it, and those stay read-only afterwards. The one exception
// is each client's solver caches (literal universe and WP caches), which
// the program keeps for its lifetime and every problem built from it fills.
// They are concurrency-safe, and a solve's verdict and work counts do not
// depend on what they already hold, unless a step quota trips: a memo hit
// charges none of the budget polls its miss would.
type Program struct {
	IR  *ir.Program
	PT  *pointsto.Result
	SP  *rhs.Program
	Inl *rhs.Inlined // nil for a program loaded with LoadRHS

	// Vars is the type-state parameter universe: the qualified pointer
	// variables appearing in the lowered program, sorted.
	Vars []string
	// Locals, Fields, Sites are the thread-escape universes; nullness cells
	// are Locals and Fields.
	Locals, Fields, Sites []string

	// varPts maps qualified variable names to their may-point-to site sets.
	varPts map[string]uset.Set
	// methodVars groups varPts' keys by owning method (the QualName before
	// "::"), for EnvHash.
	methodVars map[string][]string
	// stressMethods are the method names called from application code,
	// sorted.
	stressMethods []string

	// tsCaches, escCaches and nullCaches are each client's literal universe
	// and per-part WP caches, shared by every problem built for the
	// program's generated queries (see client.Caches). Problems for explicit
	// query statements keep caches of their own.
	tsCaches, escCaches, nullCaches *client.Caches

	stmtKeys                map[ir.Stmt]string
	siteOwner               map[string]string
	tsQueries               []TSQuery
	escQueries, nullQueries []AccessQuery
}

// Load parses src and prepares all analyses.
func Load(src string) (*Program, error) {
	prog, err := ir.Parse(src)
	if err != nil {
		return nil, err
	}
	return Prepare(prog)
}

// LoadRHS parses src and prepares it for the RHS engine alone: the program
// has no inlined view, so its call graph may be recursive. Only RHS jobs
// (ClientSpec.RHSJob, ExplicitJobs) can be built from it.
func LoadRHS(src string) (*Program, error) {
	prog, err := ir.Parse(src)
	if err != nil {
		return nil, err
	}
	return prepare(prog, false)
}

// Prepare runs points-to and lowering on an already-parsed program, and
// generates every client's queries.
func Prepare(prog *ir.Program) (*Program, error) { return prepare(prog, true) }

// prepare lowers prog onto its supergraph and, when inline is set, inlines
// that into one CFG. The parameter universes come from the supergraph's
// atoms, which the inlined CFG copies.
func prepare(prog *ir.Program, inline bool) (*Program, error) {
	pt, err := pointsto.Analyze(prog)
	if err != nil {
		return nil, err
	}
	sp, err := rhs.FromIR(prog, pt)
	if err != nil {
		return nil, err
	}
	p := &Program{IR: prog, PT: pt, SP: sp, varPts: map[string]uset.Set{},
		tsCaches:   client.NewCaches(typestate.Theory{}),
		escCaches:  client.NewCaches(escape.Theory{}),
		nullCaches: client.NewCaches(nullness.Theory{}),
		stmtKeys:   ir.StmtKeys(prog), siteOwner: siteOwners(prog)}
	if inline {
		if p.Inl, err = sp.Inline(); err != nil {
			return nil, err
		}
	}
	atoms := sp.G.AtomsCFG()
	p.Vars = typestate.CollectVars(atoms)
	p.Locals, p.Fields, p.Sites = escape.Universe(atoms)
	for _, m := range pt.ReachableMethods() {
		if m.Native {
			continue
		}
		vars := append([]string{"this"}, m.Params...)
		vars = append(vars, m.Locals...)
		for _, v := range vars {
			p.varPts[ir.Qualify(m, v)] = pt.PointsTo(m, v)
		}
	}
	p.methodVars = map[string][]string{}
	for qv := range p.varPts {
		if i := strings.Index(qv, "::"); i >= 0 {
			p.methodVars[qv[:i]] = append(p.methodVars[qv[:i]], qv)
		}
	}
	called := map[string]bool{}
	for _, cs := range sp.Calls {
		if !isLib(cs.Method) {
			called[cs.Stmt.Method] = true
		}
	}
	for name := range called {
		p.stressMethods = append(p.stressMethods, name)
	}
	sort.Strings(p.stressMethods)
	p.tsQueries = p.typestateQueries()
	p.escQueries = p.accessQueries("esc")
	p.nullQueries = p.accessQueries("null")
	return p, nil
}

// cfg returns the inlined CFG, or nil without an inlined view.
func (p *Program) cfg() *lang.CFG {
	if p.Inl == nil {
		return nil
	}
	return p.Inl.G
}

// copies groups an inlined view's copies by the record they copy: the
// result lists, per record of a list of n, its copies' nodes in increasing
// order (all nil without an inlined view).
func copies(n int, cs []rhs.Copy) [][]int {
	out := make([][]int, n)
	for _, c := range cs {
		out[c.Rec] = append(out[c.Rec], c.Node)
	}
	return out
}

// StressMethods lists the application method names driving the generated
// stress type-state property, sorted. The warm-start layer includes them in
// its per-client configuration hash: the property automaton is built from
// this whole-program list, so an edit that introduces a new called method
// name changes the meaning of every stored type-state entry.
func (p *Program) StressMethods() []string { return p.stressMethods }

// StmtKey returns a stable, position-independent identity for a source
// statement ("Class.method#<ordinal>#<rendering>"); queries keyed by it keep
// their identity across reformatting and across edits to other methods.
func (p *Program) StmtKey(s ir.Stmt) string { return p.stmtKeys[s] }

// SiteOwner returns the QualName of the method whose body allocates at site
// h, or "" when h is unknown. The warm-start layer treats the owner as a
// supporting method of any counterexample trace mentioning h.
func (p *Program) SiteOwner(h string) string { return p.siteOwner[h] }

// siteOwners maps each allocation site to the QualName of the first method
// whose body allocates at it.
func siteOwners(prog *ir.Program) map[string]string {
	out := map[string]string{}
	for _, m := range prog.Methods() {
		qual := m.QualName()
		ir.WalkStmts(m.Body, func(s ir.Stmt) {
			if n, ok := s.(*ir.NewStmt); ok {
				if _, dup := out[n.Site]; !dup {
					out[n.Site] = qual
				}
			}
		})
	}
	return out
}

// EnvHash digests the points-to environment restricted to the given methods
// (QualNames): every qualified variable of a listed method together with its
// sorted may-point-to site labels. A stored blocking clause justified by a
// counterexample trace through those methods remains valid only while this
// hash is unchanged — the trace's call branches were selected by exactly
// these points-to sets. Labels (not interned IDs) are hashed so the result
// is comparable across separately-loaded programs.
func (p *Program) EnvHash(methods []string) uint64 {
	var qvs []string
	for i, m := range methods {
		if !slices.Contains(methods[:i], m) {
			qvs = append(qvs, p.methodVars[m]...)
		}
	}
	sort.Strings(qvs)
	h := fnv.New64a()
	var labels []string
	for _, qv := range qvs {
		h.Write([]byte(qv))
		h.Write([]byte{0})
		labels = labels[:0]
		for _, id := range p.varPts[qv].Elems() {
			labels = append(labels, p.PT.Sites.Value(id))
		}
		sort.Strings(labels)
		for _, l := range labels {
			h.Write([]byte(l))
			h.Write([]byte{1})
		}
		h.Write([]byte{2})
	}
	return h.Sum64()
}

// IsApp reports whether a method belongs to application code.
func (p *Program) IsApp(m *ir.Method) bool { return !isLib(m) }

func isLib(m *ir.Method) bool { return strings.HasPrefix(m.Class.Name, LibPrefix) }

// appSites returns the allocation sites occurring in application code,
// collected in one walk over the program.
func appSites(prog *ir.Program) map[string]bool {
	out := map[string]bool{}
	for _, m := range prog.Methods() {
		if isLib(m) {
			continue
		}
		ir.WalkStmts(m.Body, func(s ir.Stmt) {
			if n, ok := s.(*ir.NewStmt); ok {
				out[n.Site] = true
			}
		})
	}
	return out
}

// MayPoint returns the oracle "may qualified variable qv point to site h".
func (p *Program) MayPoint(h string) func(qv string) bool {
	id, ok := p.PT.Sites.Lookup(h)
	if !ok {
		return func(string) bool { return false }
	}
	return func(qv string) bool { return p.varPts[qv].Has(id) }
}

// gen returns the client-independent view of a generated query; the typed
// queries embed GenQuery and inherit it.
func (q GenQuery) gen() GenQuery { return q }

// Loc places a generated query on both forward engines: the supergraph
// point of its source statement, and that point's copies in the inlined
// CFG, in increasing order (nil without an inlined view).
type Loc struct {
	Point rhs.Point
	Nodes []int
}

// loc returns the query's place; the typed queries embed Loc and inherit it.
func (l Loc) loc() Loc { return l }

// TSQuery is a generated type-state query: at source call site Stmt, is
// every object allocated at Site that the receiver may denote still in the
// automaton's initial state? Its Key is the position-independent identity
// used by the warm-start store: unlike ID (which embeds line:col), it
// survives reformatting and edits to other methods.
type TSQuery struct {
	GenQuery
	Loc
	Site string
	Stmt *ir.CallStmt
}

// TypestateQueries lists one query per (application call site, tracked
// application site h) pair with the receiver possibly pointing to h,
// mirroring §6, in a deterministic order. Callers must not modify the
// returned slice.
func (p *Program) TypestateQueries() []TSQuery { return p.tsQueries }

func (p *Program) typestateQueries() []TSQuery {
	var nodes [][]int
	if p.Inl != nil {
		nodes = copies(len(p.SP.Calls), p.Inl.Calls)
	}
	appSite := appSites(p.IR)
	var out []TSQuery
	for i, cs := range p.SP.Calls {
		if !p.IsApp(cs.Method) {
			continue
		}
		for _, hid := range p.varPts[cs.Recv].Elems() {
			h := p.PT.Sites.Value(hid)
			if !appSite[h] {
				continue
			}
			q := TSQuery{
				GenQuery: GenQuery{
					ID:  fmt.Sprintf("ts:%s:%s:%s", cs.Method.QualName(), cs.Stmt.Position(), h),
					Key: "ts:" + p.StmtKey(cs.Stmt) + ":" + h,
				},
				Loc:  Loc{Point: cs.At},
				Site: h,
				Stmt: cs.Stmt,
			}
			if nodes != nil {
				q.Nodes = nodes[i]
			}
			out = append(out, q)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// siteAnalysis builds the type-state analysis of property prop tracking
// site h.
func (p *Program) siteAnalysis(prop *typestate.Property, h string) *typestate.Analysis {
	a := typestate.New(prop, h, p.Vars)
	a.MayPoint = p.MayPoint(h)
	return a
}

// escapeAnalysis builds a fresh thread-escape analysis over the program's
// universes. The analysis is query-independent, so it tracks no part of
// the program and ignores the part name (see client.NewBatch).
func (p *Program) escapeAnalysis(string) *escape.Analysis {
	return escape.New(p.Locals, p.Fields, p.Sites)
}

// nullnessAnalysis builds a fresh nullness analysis over the program's cell
// universes (nullness shares the escape client's locals and fields, which
// cover every name the CFG's atoms mention); like escape, it ignores the
// part name.
func (p *Program) nullnessAnalysis(string) *nullness.Analysis {
	return nullness.New(p.Locals, p.Fields)
}

// AccessQuery is a generated query at a source field access Stmt about its
// base pointer: the escape client asks whether it is thread-local, the
// nullness client whether it is definitely non-nil.
type AccessQuery struct {
	GenQuery
	Loc
	Var  string // qualified base variable
	Stmt ir.Stmt
}

// EscapeQueries lists one query per application field access, as §6 does
// for the datarace client. Callers must not modify the returned slice.
func (p *Program) EscapeQueries() []AccessQuery { return p.escQueries }

// NullnessQueries lists one query per application field access — the same
// dereference points the escape client guards, asked the null-safety
// question instead. Callers must not modify the returned slice.
func (p *Program) NullnessQueries() []AccessQuery { return p.nullQueries }

func (p *Program) accessQueries(prefix string) []AccessQuery {
	var nodes [][]int
	if p.Inl != nil {
		nodes = copies(len(p.SP.Accesses), p.Inl.Accesses)
	}
	var out []AccessQuery
	for i, fa := range p.SP.Accesses {
		if !p.IsApp(fa.Method) {
			continue
		}
		q := AccessQuery{
			GenQuery: GenQuery{
				ID:  fmt.Sprintf("%s:%s:%s:%s", prefix, fa.Method.QualName(), fa.Stmt.Position(), fa.Base),
				Key: prefix + ":" + p.StmtKey(fa.Stmt) + ":" + fa.Base,
			},
			Loc:  Loc{Point: fa.At},
			Var:  fa.Base,
			Stmt: fa.Stmt,
		}
		if nodes != nil {
			q.Nodes = nodes[i]
		}
		out = append(out, q)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// ExplicitEscapeJobs builds inline jobs for the program's explicit
// "query name local(v)" statements.
func (p *Program) ExplicitEscapeJobs(k int) map[string]*escape.Job {
	_, esc, _, _ := p.explicitJobs(nil, k)
	return esc
}

// ExplicitTypestateJobs builds inline jobs for "query name state(v: ...)"
// statements against a user-supplied property; each query yields one job
// per site its variable may point to, keyed "name@site".
func (p *Program) ExplicitTypestateJobs(prop *typestate.Property, k int) (map[string]*typestate.Job, error) {
	ts, _, _, err := p.explicitJobs(prop, k)
	return ts, err
}

// ExplicitJobs builds RHS jobs for the program's explicit query statements:
// "query name local(v)" and, against prop, "query name state(v: ...)"
// (keyed "name@site" per may-site, as ExplicitTypestateJobs does).
func (p *Program) ExplicitJobs(prop *typestate.Property, k int) (map[string]core.Problem, error) {
	ts, esc, points, err := p.explicitJobs(prop, k)
	if err != nil {
		return nil, err
	}
	out := map[string]core.Problem{}
	for name, j := range ts {
		out[name] = &RHSJob[typestate.State, typestate.Query, *typestate.Analysis]{G: p.SP.G, Points: points[name], Inner: j}
	}
	for name, j := range esc {
		out[name] = &RHSJob[escape.State, escape.Query, *escape.Analysis]{G: p.SP.G, Points: points[name], Inner: j}
	}
	return out, nil
}

// explicitJobs builds an inline job per explicit query name ("name@site"
// per site the variable may point to, for a type-state query; with prop
// nil there are none of those) and lists each job's supergraph points. A
// job's nodes are its statements' inlined copies, in expansion order. Each
// job fills caches of its own.
func (p *Program) explicitJobs(prop *typestate.Property, k int) (map[string]*typestate.Job, map[string]*escape.Job, map[string][]rhs.Point, error) {
	ts, esc, points := map[string]*typestate.Job{}, map[string]*escape.Job{}, map[string][]rhs.Point{}
	names := make([][]string, len(p.SP.Queries)) // the jobs each statement poses
	for i, q := range p.SP.Queries {
		switch {
		case q.Kind == ir.QueryLocal:
			if esc[q.Name] == nil {
				esc[q.Name] = &escape.Job{A: p.escapeAnalysis(""), G: p.cfg(), Q: escape.Query{V: q.Var}, K: k}
			}
			names[i] = []string{q.Name}
		case q.Kind == ir.QueryTypestate && prop != nil:
			want, err := wantStates(prop, q.Name, q.States)
			if err != nil {
				return nil, nil, nil, err
			}
			for _, hid := range p.varPts[q.Var].Elems() {
				h := p.PT.Sites.Value(hid)
				name := q.Name + "@" + h
				if ts[name] == nil {
					ts[name] = &typestate.Job{A: p.siteAnalysis(prop, h), G: p.cfg(), Q: typestate.Query{Want: want}, K: k}
				}
				names[i] = append(names[i], name)
			}
		}
		for _, name := range names[i] {
			points[name] = append(points[name], q.At)
		}
	}
	if p.Inl != nil {
		for _, c := range p.Inl.Queries {
			for _, name := range names[c.Rec] {
				if j := ts[name]; j != nil {
					j.Q.Nodes = append(j.Q.Nodes, c.Node)
				} else {
					esc[name].Q.Nodes = append(esc[name].Q.Nodes, c.Node)
				}
			}
		}
	}
	return ts, esc, points, nil
}

// wantStates resolves an explicit type-state query's state names against
// the property's automaton.
func wantStates(prop *typestate.Property, query string, states []string) (uset.Bits, error) {
	var want uset.Bits
	for _, s := range states {
		found := false
		for i, name := range prop.States {
			if name == s {
				want = want.Add(i)
				found = true
			}
		}
		if !found {
			return 0, fmt.Errorf("driver: query %s: unknown automaton state %q", query, s)
		}
	}
	return want, nil
}

// Stats summarizes program size for Table 1.
type Stats struct {
	AppClasses, TotalClasses int
	AppMethods, TotalMethods int
	AppAtoms, TotalAtoms     int // lowered atomic commands ("bytecode")
	SourceLines              int
	TypestateParams          int // N for the type-state family 2^N
	EscapeParams             int // N for the thread-escape family 2^N
	NullnessParams           int // N for the null-dereference family 2^N
}

// ComputeStats gathers Table 1 statistics, counting atoms in the inlined
// CFG, so the program must have one (Load or Prepare). src may be empty
// (lines = 0).
func (p *Program) ComputeStats(src string) Stats {
	s := Stats{
		TypestateParams: len(p.Vars),
		EscapeParams:    len(p.Sites),
		NullnessParams:  len(p.Locals) + len(p.Fields),
		SourceLines:     strings.Count(src, "\n") + 1,
	}
	if src == "" {
		s.SourceLines = 0
	}
	for _, c := range p.IR.Classes {
		s.TotalClasses++
		app := !strings.HasPrefix(c.Name, LibPrefix)
		if app {
			s.AppClasses++
		}
		s.TotalMethods += len(c.Methods)
		if app {
			s.AppMethods += len(c.Methods)
		}
	}
	s.TotalAtoms = p.Inl.Atoms
	for m, n := range p.Inl.AtomsByMethod {
		if p.IsApp(m) {
			s.AppAtoms += n
		}
	}
	return s
}
