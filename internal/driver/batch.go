package driver

import (
	"sync"

	"tracer/internal/budget"
	"tracer/internal/client"
	"tracer/internal/core"
	"tracer/internal/dataflow"
	"tracer/internal/escape"
	"tracer/internal/formula"
	"tracer/internal/lang"
	"tracer/internal/meta"
	"tracer/internal/nullness"
	"tracer/internal/obs"
	"tracer/internal/typestate"
	"tracer/internal/uset"
)

// Batch is one client's batch problem over a list of generated queries. Its
// constructor states the client's cache-sharing policy once: the literal
// universe is shared batch-wide, and the weakest-precondition cache among
// the queries whose WP coincides (all of them for a query-independent
// client, the queries tracking one site for type-state). Job hands out
// standalone single-query problems under the same policy, so a per-query
// run over the same queries shares exactly what the batch shares.
type Batch interface {
	core.BatchProblem
	// Job builds a fresh single-query problem for query q; noDelta selects
	// the cold forward executor.
	Job(q int, noDelta bool) core.Problem
}

// escapeBatch builds the thread-escape batch over the given queries. The
// escape analysis is query-independent, so a group's queries share one
// forward run (see client.Batch).
func escapeBatch(p *Program, queries []AccessQuery, k int) Batch {
	qs := make([]escape.Query, len(queries))
	for i, q := range queries {
		qs[i] = escape.Query{Nodes: q.Nodes, V: q.Var}
	}
	return client.NewBatch(p.Low.G, p.FreshEscapeAnalysis, qs, k)
}

// nullnessBatch builds the null-dereference batch over the given queries;
// like escape, the nullness analysis is query-independent.
func nullnessBatch(p *Program, queries []AccessQuery, k int) Batch {
	qs := make([]nullness.Query, len(queries))
	for i, q := range queries {
		qs[i] = nullness.Query{Nodes: q.Nodes, V: q.Var}
	}
	return client.NewBatch(p.Low.G, p.FreshNullnessAnalysis, qs, k)
}

// TypestateBatch runs all generated type-state queries through
// core.SolveBatch. Queries tracking the same allocation site share a
// forward solve, and a shared forward run solves lazily per site (the
// paper's implementation tracks a separate abstract object per site within
// one tabulation run; per-site solves over the same graph are equivalent).
//
// As in client.Batch, every run and every backward job owns fresh analysis
// instances so the parallel scheduler's concurrent Check/Backward calls
// never share an intern table. The formula kernel's literal universe is
// shared batch-wide (the theory is stateless, so memoized theory bits are
// valid across sites), while the weakest-precondition cache is shared per
// tracked site — the type-state WP depends on the analysis's site and
// may-point set, so only same-site jobs compute identical preconditions.
type TypestateBatch struct {
	P       *Program
	Queries []TSQuery
	K       int

	prop    *typestate.Property
	want    uset.Bits
	uni     *formula.Universe
	siteWPC map[string]*meta.WPCache

	mu   sync.Mutex // guards jobs
	jobs []*typestate.Job
}

var _ Batch = (*TypestateBatch)(nil)
var _ core.DeltaBatchProblem = (*TypestateBatch)(nil)
var _ core.ObsFlusher = (*TypestateBatch)(nil)

// NewTypestateBatch builds the batch problem over the given queries.
func NewTypestateBatch(p *Program, queries []TSQuery, k int) *TypestateBatch {
	prop := typestate.StressProperty(p.stressMethods)
	b := &TypestateBatch{P: p, Queries: queries, K: k, prop: prop,
		want:    uset.Bits(0).Add(prop.Init),
		uni:     formula.NewUniverse(typestate.Theory{}),
		siteWPC: map[string]*meta.WPCache{},
		jobs:    make([]*typestate.Job, len(queries)),
	}
	for _, q := range queries {
		if b.siteWPC[q.Site] == nil {
			b.siteWPC[q.Site] = meta.NewWPCache()
		}
	}
	return b
}

// Job builds a standalone problem for query q sharing the batch's universe
// and its site's WP cache.
func (b *TypestateBatch) Job(q int, noDelta bool) core.Problem { return b.newJob(q, noDelta) }

func (b *TypestateBatch) newJob(q int, noDelta bool) *typestate.Job {
	site := b.Queries[q].Site
	return &typestate.Job{
		A:       b.P.siteAnalysis(b.prop, site),
		G:       b.P.Low.G,
		Q:       typestate.Query{Nodes: b.Queries[q].Nodes, Want: b.want},
		K:       b.K,
		NoDelta: noDelta,
		Uni:     b.uni,
		WPC:     b.siteWPC[site],
	}
}

// FlushObs implements core.ObsFlusher for the shared literal universe.
func (b *TypestateBatch) FlushObs(rec obs.Recorder) { meta.FlushUniverseObs(rec, b.uni) }

func (b *TypestateBatch) NumParams() int  { return len(b.P.Vars) }
func (b *TypestateBatch) NumQueries() int { return len(b.Queries) }

// RunForward returns a run that solves per tracked site on demand. The run
// captures the batch budget so lazy per-site solves (which happen inside
// Check, possibly rounds later) stay interruptible.
func (b *TypestateBatch) RunForward(bud *budget.Budget, p uset.Set) core.BatchRun {
	return &typestateRun{b: b, bud: bud, p: p, perSite: map[string]*siteCell{}}
}

// RunForwardFrom returns a run seeded with the donor's per-site chains: each
// site the new run is asked to solve resumes the donor's retained execution
// for that site (if any) instead of solving cold. Donor cells the donor
// itself inherited but never touched ride along, so a chain keeps serving
// its site across a whole lineage of donations until the site is asked
// again. The donor is consumed.
func (b *TypestateBatch) RunForwardFrom(bud *budget.Budget, p uset.Set, donor core.BatchRun, donorP uset.Set) core.BatchRun {
	d, ok := donor.(*typestateRun)
	if !ok {
		return b.RunForward(bud, p)
	}
	inherited := d.inherited
	if inherited == nil {
		inherited = map[string]*siteCell{}
	}
	for site, c := range d.perSite {
		if c.res != nil {
			inherited[site] = c // the donor's own cells are the more recent
		}
	}
	d.perSite, d.inherited = nil, nil
	return &typestateRun{b: b, bud: bud, p: p, inherited: inherited, perSite: map[string]*siteCell{}}
}

// siteCell holds one site's lazily-computed solve within a run. The cell's
// once gate lets concurrent checks of same-site queries wait for a single
// solve; a, ch, and res are immutable after the gate opens.
type siteCell struct {
	once sync.Once
	a    *typestate.Analysis
	ch   *dataflow.Chain[typestate.State]
	res  *dataflow.Result[typestate.State]
}

type typestateRun struct {
	b   *TypestateBatch
	bud *budget.Budget
	p   uset.Set
	// inherited maps sites to donor cells whose chain a solve for that site
	// resumes. Written only before the run is published to the scheduler;
	// each site's cell is consumed by exactly one once-gated solve.
	inherited map[string]*siteCell

	mu      sync.Mutex // guards perSite, steps, and the delta counters
	perSite map[string]*siteCell
	steps   int

	resumes, reused, invalid int
}

func (r *typestateRun) solve(site string) *siteCell {
	r.mu.Lock()
	c := r.perSite[site]
	if c == nil {
		c = &siteCell{}
		r.perSite[site] = c
	}
	r.mu.Unlock()
	c.once.Do(func() {
		if dc := r.inherited[site]; dc != nil {
			c.a, c.ch = dc.a, dc.ch
			dc.ch, dc.res = nil, nil
		} else {
			c.a = r.b.P.siteAnalysis(r.b.prop, site)
			c.ch = dataflow.NewChain[typestate.State](r.b.P.Low.G)
		}
		c.res = c.ch.Solve(r.p, c.a.Initial(), c.a.TransferDep(r.p), r.bud)
		resumes, reused, invalid := client.ChainStats(c.ch)
		r.mu.Lock()
		r.steps += c.res.Steps
		r.resumes += resumes
		r.reused += reused
		r.invalid += invalid
		r.mu.Unlock()
	})
	return c
}

// DeltaStats implements core.DeltaRun; lazy per-site solves keep accruing, so
// the counts are cumulative like Steps.
func (r *typestateRun) DeltaStats() (int, int, int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.resumes, r.reused, r.invalid
}

// Check is safe for concurrent calls with distinct queries; same-site
// queries share one solve through the cell's once gate.
func (r *typestateRun) Check(q int) (bool, lang.Trace) {
	query := r.b.Queries[q]
	c := r.solve(query.Site)
	node, bad, found := client.FindFailure(c.a, c.res, typestate.Query{Nodes: query.Nodes, Want: r.b.want})
	if !found {
		return true, nil
	}
	return false, c.res.Witness(node, bad)
}

func (r *typestateRun) Steps() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.steps
}

// Backward delegates to the per-query job, built on first use and kept
// across rounds; distinct queries may run concurrently because each job
// owns its analysis instance, while the shared literal universe and
// per-site WP caches are concurrency-safe.
func (b *TypestateBatch) Backward(bud *budget.Budget, q int, p uset.Set, t lang.Trace) []core.ParamCube {
	b.mu.Lock()
	if b.jobs[q] == nil {
		b.jobs[q] = b.newJob(q, false)
	}
	job := b.jobs[q]
	b.mu.Unlock()
	return job.Backward(bud, p, t)
}
