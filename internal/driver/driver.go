// Package driver ties the front end together: it parses a mini-IR program,
// runs the 0-CFA points-to analysis, lowers the program to a single CFG by
// inlining, and generates queries the way the paper's evaluation does (§6):
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
	"tracer/internal/escape"
	"tracer/internal/ir"
	"tracer/internal/lang"
	"tracer/internal/nullness"
	"tracer/internal/pointsto"
	"tracer/internal/typestate"
	"tracer/internal/uset"
)

// LibPrefix marks library classes, excluded from query generation but fully
// analyzed, mirroring how the paper poses no queries inside the JDK.
const LibPrefix = "Lib"

// base is what both pipelines derive from the parsed program, its
// points-to result, and the atoms of its lowered form.
type base struct {
	IR *ir.Program
	PT *pointsto.Result

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
}

// newBase collects the universes from the lowered program's atoms; called
// holds the method names of its application call sites.
func newBase(prog *ir.Program, pt *pointsto.Result, atoms *lang.CFG, called map[string]bool) base {
	b := base{IR: prog, PT: pt, varPts: map[string]uset.Set{},
		tsCaches:   client.NewCaches(typestate.Theory{}),
		escCaches:  client.NewCaches(escape.Theory{}),
		nullCaches: client.NewCaches(nullness.Theory{})}
	b.Vars = typestate.CollectVars(atoms)
	b.Locals, b.Fields, b.Sites = escape.Universe(atoms)
	for _, m := range pt.ReachableMethods() {
		if m.Native {
			continue
		}
		vars := append([]string{"this"}, m.Params...)
		vars = append(vars, m.Locals...)
		for _, v := range vars {
			b.varPts[ir.Qualify(m, v)] = pt.PointsTo(m, v)
		}
	}
	b.methodVars = map[string][]string{}
	for qv := range b.varPts {
		if i := strings.Index(qv, "::"); i >= 0 {
			b.methodVars[qv[:i]] = append(b.methodVars[qv[:i]], qv)
		}
	}
	for name := range called {
		b.stressMethods = append(b.stressMethods, name)
	}
	sort.Strings(b.stressMethods)
	return b
}

// Program is a loaded, lowered, and points-to-analyzed program, safe to
// share between goroutines. Prepare builds every table derived from it, and
// those stay read-only afterwards. The one exception is each client's
// solver caches (literal universe and WP caches), which the program keeps
// for its lifetime and every problem built from it fills. They are
// concurrency-safe, and a solve's verdict and work counts do not depend on
// what they already hold, unless a step quota trips: a memo hit charges
// none of the budget polls its miss would.
type Program struct {
	base
	Low *ir.Lowered

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

// Prepare runs points-to and lowering on an already-parsed program, and
// generates every client's queries.
func Prepare(prog *ir.Program) (*Program, error) {
	pt, err := pointsto.Analyze(prog)
	if err != nil {
		return nil, err
	}
	low, err := ir.Lower(prog, pt, ir.LowerOptions{})
	if err != nil {
		return nil, err
	}
	called := map[string]bool{}
	for _, cs := range low.Calls {
		if !isLib(cs.Method) {
			called[cs.Stmt.Method] = true
		}
	}
	p := &Program{base: newBase(prog, pt, low.G, called), Low: low,
		stmtKeys: ir.StmtKeys(prog), siteOwner: siteOwners(prog)}
	p.tsQueries = p.typestateQueries()
	p.escQueries = p.accessQueries("esc")
	p.nullQueries = p.accessQueries("null")
	return p, nil
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
func (b *base) MayPoint(h string) func(qv string) bool {
	id, ok := b.PT.Sites.Lookup(h)
	if !ok {
		return func(string) bool { return false }
	}
	return func(qv string) bool { return b.varPts[qv].Has(id) }
}

// gen returns the client-independent view of a generated query; the typed
// queries embed GenQuery and inherit it.
func (q GenQuery) gen() GenQuery { return q }

// TSQuery is a generated type-state query: at source call site Stmt, is
// every object allocated at Site that the receiver may denote still in the
// automaton's initial state? Its Key is the position-independent identity
// used by the warm-start store: unlike ID (which embeds line:col), it
// survives reformatting and edits to other methods.
type TSQuery struct {
	GenQuery
	Site  string
	Stmt  *ir.CallStmt
	Nodes []int
}

// TypestateQueries lists one query per (application call site, tracked
// application site h) pair with the receiver possibly pointing to h,
// mirroring §6, in a deterministic order. Callers must not modify the
// returned slice.
func (p *Program) TypestateQueries() []TSQuery { return p.tsQueries }

func (p *Program) typestateQueries() []TSQuery {
	type key struct {
		stmt *ir.CallStmt
		site string
	}
	nodes := map[key][]int{}
	meta := map[key]ir.CallSite{}
	appSite := appSites(p.IR)
	for _, cs := range p.Low.Calls {
		if !p.IsApp(cs.Method) {
			continue
		}
		pts := p.varPts[cs.Recv]
		for _, hid := range pts.Elems() {
			h := p.PT.Sites.Value(hid)
			if !appSite[h] {
				continue
			}
			k := key{cs.Stmt, h}
			nodes[k] = append(nodes[k], cs.Node)
			meta[k] = cs
		}
	}
	var out []TSQuery
	for k, ns := range nodes {
		sort.Ints(ns)
		out = append(out, TSQuery{
			GenQuery: GenQuery{
				ID:  fmt.Sprintf("ts:%s:%s:%s", meta[k].Method.QualName(), k.stmt.Position(), k.site),
				Key: "ts:" + p.StmtKey(k.stmt) + ":" + k.site,
			},
			Site:  k.site,
			Stmt:  k.stmt,
			Nodes: ns,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// siteAnalysis builds the type-state analysis of property prop tracking
// site h.
func (b *base) siteAnalysis(prop *typestate.Property, h string) *typestate.Analysis {
	a := typestate.New(prop, h, b.Vars)
	a.MayPoint = b.MayPoint(h)
	return a
}

// escapeAnalysis builds a fresh thread-escape analysis over the program's
// universes. The analysis is query-independent, so it tracks no part of
// the program and ignores the part name (see client.NewBatch).
func (b *base) escapeAnalysis(string) *escape.Analysis {
	return escape.New(b.Locals, b.Fields, b.Sites)
}

// nullnessAnalysis builds a fresh nullness analysis over the program's cell
// universes (nullness shares the escape client's locals and fields, which
// cover every name the CFG's atoms mention); like escape, it ignores the
// part name.
func (b *base) nullnessAnalysis(string) *nullness.Analysis {
	return nullness.New(b.Locals, b.Fields)
}

// AccessQuery is a generated query at a source field access Stmt about its
// base pointer: the escape client asks whether it is thread-local, the
// nullness client whether it is definitely non-nil.
type AccessQuery struct {
	GenQuery
	Var   string // qualified base variable
	Stmt  ir.Stmt
	Nodes []int
}

// EscapeQueries lists one query per application field access, as §6 does
// for the datarace client. Callers must not modify the returned slice.
func (p *Program) EscapeQueries() []AccessQuery { return p.escQueries }

// NullnessQueries lists one query per application field access — the same
// dereference points the escape client guards, asked the null-safety
// question instead. Callers must not modify the returned slice.
func (p *Program) NullnessQueries() []AccessQuery { return p.nullQueries }

func (p *Program) accessQueries(prefix string) []AccessQuery {
	type key struct {
		stmt ir.Stmt
		base string
	}
	nodes := map[key][]int{}
	meta := map[key]ir.FieldAccess{}
	for _, fa := range p.Low.Accesses {
		if !p.IsApp(fa.Method) {
			continue
		}
		k := key{fa.Stmt, fa.Base}
		nodes[k] = append(nodes[k], fa.Node)
		meta[k] = fa
	}
	var out []AccessQuery
	for k, ns := range nodes {
		sort.Ints(ns)
		out = append(out, AccessQuery{
			GenQuery: GenQuery{
				ID:  fmt.Sprintf("%s:%s:%s:%s", prefix, meta[k].Method.QualName(), k.stmt.Position(), k.base),
				Key: prefix + ":" + p.StmtKey(k.stmt) + ":" + k.base,
			},
			Var:   k.base,
			Stmt:  k.stmt,
			Nodes: ns,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// ExplicitEscapeJobs builds jobs for the program's explicit
// "query name local(v)" statements.
func (p *Program) ExplicitEscapeJobs(k int) map[string]*escape.Job {
	out := map[string]*escape.Job{}
	for _, q := range p.Low.Queries {
		if q.Kind != ir.QueryLocal {
			continue
		}
		job := out[q.Name]
		if job == nil {
			job = &escape.Job{A: p.escapeAnalysis(""), G: p.Low.G, Q: escape.Query{V: q.Var}, K: k}
			out[q.Name] = job
		}
		job.Q.Nodes = append(job.Q.Nodes, q.Node)
	}
	return out
}

// ExplicitTypestateJobs builds jobs for "query name state(v: ...)"
// statements against a user-supplied property; each query yields one job
// per site its variable may point to, keyed "name@site".
func (p *Program) ExplicitTypestateJobs(prop *typestate.Property, k int) (map[string]*typestate.Job, error) {
	out := map[string]*typestate.Job{}
	for _, q := range p.Low.Queries {
		if q.Kind != ir.QueryTypestate {
			continue
		}
		want, err := wantStates(prop, q.Name, q.States)
		if err != nil {
			return nil, err
		}
		for _, hid := range p.varPts[q.Var].Elems() {
			h := p.PT.Sites.Value(hid)
			keyName := q.Name + "@" + h
			job := out[keyName]
			if job == nil {
				job = &typestate.Job{A: p.siteAnalysis(prop, h), G: p.Low.G, Q: typestate.Query{Want: want}, K: k}
				out[keyName] = job
			}
			job.Q.Nodes = append(job.Q.Nodes, q.Node)
		}
	}
	return out, nil
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

// ComputeStats gathers Table 1 statistics. src may be empty (lines = 0).
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
	s.TotalAtoms = p.Low.Atoms
	for m, n := range p.Low.AtomsByMethod {
		if p.IsApp(m) {
			s.AppAtoms += n
		}
	}
	return s
}
