package client

import (
	"sync"

	"tracer/internal/budget"
	"tracer/internal/core"
	"tracer/internal/dataflow"
	"tracer/internal/formula"
	"tracer/internal/lang"
	"tracer/internal/meta"
	"tracer/internal/obs"
	"tracer/internal/uset"
)

// Batch poses many queries on one CFG through core.SolveBatch for a client
// whose analysis does not depend on the query (thread-escape, nullness, or
// type-state queries that all track one site): a group's queries genuinely
// share one forward run.
//
// The batch is safe for the concurrent access pattern of the parallel
// scheduler: every forward run and every query's backward job owns a fresh
// analysis instance from New (interned state IDs are only meaningful within
// one instance, and interning mutates the instance), while the parameter
// universe is identical across instances. The formula kernel's literal
// universe and the weakest-precondition cache are the exception: a
// query-independent WP depends only on the atom and primitive, so all
// backward jobs share one concurrency-safe formula.Universe and
// meta.WPCache, letting workers reuse interned IDs, memoized theory bits,
// and WP DNFs instead of re-deriving them per query.
type Batch[D comparable, Q Query, A Analysis[D, Q]] struct {
	g       *lang.CFG
	fresh   func() A
	queries []Q
	k       int
	n       int
	uni     *formula.Universe
	wpc     *meta.WPCache

	mu   sync.Mutex // guards jobs
	jobs []*Job[D, Q, A]
}

// NewBatch builds the batch problem over queries on g; fresh returns a new
// analysis instance per call, and k is the beam width of every query's
// meta-analysis.
func NewBatch[D comparable, Q Query, A Analysis[D, Q]](g *lang.CFG, fresh func() A, queries []Q, k int) *Batch[D, Q, A] {
	a := fresh()
	return &Batch[D, Q, A]{
		g: g, fresh: fresh, queries: queries, k: k, n: a.NumParams(),
		uni:  formula.NewUniverse(a.Theory()),
		wpc:  meta.NewWPCache(),
		jobs: make([]*Job[D, Q, A], len(queries)),
	}
}

// Job builds a standalone single-query problem for query q on a fresh
// analysis instance, sharing the batch's literal universe and WP cache: a
// per-query run over the same queries shares exactly what the batch does.
func (b *Batch[D, Q, A]) Job(q int, noDelta bool) core.Problem { return b.newJob(q, noDelta) }

func (b *Batch[D, Q, A]) newJob(q int, noDelta bool) *Job[D, Q, A] {
	return &Job[D, Q, A]{A: b.fresh(), G: b.g, Q: b.queries[q], K: b.k, NoDelta: noDelta, Uni: b.uni, WPC: b.wpc}
}

// job returns query q's backward job, built on first use and kept across
// rounds.
func (b *Batch[D, Q, A]) job(q int) *Job[D, Q, A] {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.jobs[q] == nil {
		b.jobs[q] = b.newJob(q, false)
	}
	return b.jobs[q]
}

// FlushObs implements core.ObsFlusher for the shared literal universe.
func (b *Batch[D, Q, A]) FlushObs(rec obs.Recorder) { meta.FlushUniverseObs(rec, b.uni) }

func (b *Batch[D, Q, A]) NumParams() int  { return b.n }
func (b *Batch[D, Q, A]) NumQueries() int { return len(b.queries) }

// RunForward solves the whole CFG once under p. The run carries the
// analysis instance that produced it: checks must resolve interned state
// IDs against that instance. On a budget trip the run holds a partial
// fixpoint; the scheduler discards that round's outcomes.
//
// Runs solve through a dataflow.Chain so they retain resumable state: the
// scheduler may later hand the run back as a donor (RunForwardFrom), turning
// the forward memo into a second-level cache over resumable executions.
func (b *Batch[D, Q, A]) RunForward(bud *budget.Budget, p uset.Set) core.BatchRun {
	return b.solve(bud, p, b.fresh(), dataflow.NewChain[D](b.g))
}

// RunForwardFrom solves under p by resuming the donor's retained execution
// against the parameter flip. The donor is consumed: its chain (and analysis
// instance, whose intern table the chain's memo is bound to) move to the new
// run, and its result is dead.
func (b *Batch[D, Q, A]) RunForwardFrom(bud *budget.Budget, p uset.Set, donor core.BatchRun, donorP uset.Set) core.BatchRun {
	d, ok := donor.(*run[D, Q, A])
	if !ok || d.ch == nil {
		return b.RunForward(bud, p)
	}
	a, ch := d.a, d.ch
	d.ch, d.res = nil, nil
	return b.solve(bud, p, a, ch)
}

func (b *Batch[D, Q, A]) solve(bud *budget.Budget, p uset.Set, a A, ch *dataflow.Chain[D]) *run[D, Q, A] {
	r := &run[D, Q, A]{b: b, a: a, ch: ch}
	r.res = ch.Solve(p, a.Initial(), a.TransferDep(p), bud)
	r.resumes, r.reused, r.invalid = ChainStats(ch)
	return r
}

// ChainStats flattens a chain's last-solve accounting into counters.
func ChainStats[D comparable](ch *dataflow.Chain[D]) (resumes, reused, invalid int) {
	resumed, ru, inv := ch.Stats()
	if resumed {
		resumes = 1
	}
	return resumes, ru, inv
}

type run[D comparable, Q Query, A Analysis[D, Q]] struct {
	b   *Batch[D, Q, A]
	a   A
	ch  *dataflow.Chain[D]
	res *dataflow.Result[D]

	resumes, reused, invalid int
}

// DeltaStats implements core.DeltaRun; the counts are final at construction.
func (r *run[D, Q, A]) DeltaStats() (int, int, int) { return r.resumes, r.reused, r.invalid }

// Check is safe for concurrent calls: the solved result and its analysis
// are read-only once RunForward returns.
func (r *run[D, Q, A]) Check(q int) (bool, lang.Trace) {
	node, bad, found := FindFailure(r.a, r.res, r.b.queries[q])
	if !found {
		return true, nil
	}
	return false, r.res.Witness(node, bad)
}

func (r *run[D, Q, A]) Steps() int { return r.res.Steps }

// Backward delegates to the per-query job; distinct queries may run
// concurrently because each job owns its analysis instance, while the
// shared literal universe and WP cache are concurrency-safe by design
// (read-mostly lock plus copy-on-write snapshots; see formula.Universe).
func (b *Batch[D, Q, A]) Backward(bud *budget.Budget, q int, p uset.Set, t lang.Trace) []core.ParamCube {
	return b.job(q).Backward(bud, p, t)
}
