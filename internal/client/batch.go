package client

import (
	"fmt"
	"sync"
	"sync/atomic"

	"tracer/internal/budget"
	"tracer/internal/core"
	"tracer/internal/dataflow"
	"tracer/internal/formula"
	"tracer/internal/lang"
	"tracer/internal/meta"
	"tracer/internal/obs"
	"tracer/internal/uset"
)

// Caches holds what every backward job of one client on one program
// shares: the interned literal universe, and one weakest-precondition cache
// per part of the program (a WP depends on the atom, the primitive and the
// part the analysis tracks; see Batch). Both are concurrency-safe and their
// entries never go stale, so a driver program keeps one Caches per client
// for its whole lifetime and hands it to every batch and job it builds.
// Only problems of one analysis configuration may share it: a type-state
// WP also reads the analysis's property, so queries against another
// property need Caches of their own.
type Caches struct {
	uni *formula.Universe

	mu  sync.Mutex // guards wpc
	wpc map[string]*meta.WPCache
}

// NewCaches returns empty caches over the client's literal theory.
func NewCaches(th formula.Theory) *Caches {
	return &Caches{uni: formula.NewUniverse(th), wpc: map[string]*meta.WPCache{}}
}

// Part returns the shared literal universe and part's WP cache, creating
// the cache on first use.
func (c *Caches) Part(part string) (*formula.Universe, *meta.WPCache) {
	c.mu.Lock()
	defer c.mu.Unlock()
	w := c.wpc[part]
	if w == nil {
		w = meta.NewWPCache()
		c.wpc[part] = w
	}
	return c.uni, w
}

// Batch poses many queries on one CFG through core.SolveBatch. Each query
// names the part of the program its analysis tracks: the allocation site
// for type-state, one part shared by every query for thread-escape and
// nullness. A forward run solves each part once for all of that part's
// queries: in RunForward when the batch has one part, and on the first
// Check that needs it when it has several (the paper's implementation
// tracks a separate abstract object per site within one tabulation run;
// per-part solves over the same graph are equivalent).
//
// The batch is safe for the concurrent access pattern of the parallel
// scheduler: every part's solve within a run and every query's backward job
// owns a fresh analysis instance from fresh (interned state IDs are only
// meaningful within one instance, and interning mutates the instance),
// while the parameter universe is identical across instances. The formula
// kernel's literal universe and the weakest-precondition caches are the
// exception: they come from the Caches the batch is built with, so they
// are shared batch-wide (the universe) and per part (the WP caches) with
// every other batch and job built from the same Caches. Workers reuse
// interned IDs, memoized theory bits and WP DNFs instead of re-deriving
// them per query.
type Batch[D comparable, Q Query, A Analysis[D, Q]] struct {
	g       *lang.CFG
	fresh   func(part string) A
	queries []Q
	part    []int    // each query's index into parts
	parts   []string // the distinct parts, in order of first appearance
	k       int
	n       int
	uni     *formula.Universe
	wpc     []*meta.WPCache // per part

	// spare is the instance NewBatch built to learn the parameter count and
	// theory, until the first consumer of part 0 takes it: a one-query batch
	// builds one analysis instance per job.
	spare atomic.Pointer[A]

	mu   sync.Mutex // guards jobs
	jobs []*Job[D, Q, A]
}

// NewBatch builds the batch problem over queries on g. parts names each
// query's part (nil: one part for all queries); fresh returns a new
// analysis instance tracking a part per call, k is the beam width of every
// query's meta-analysis, and c supplies the literal universe and the
// per-part WP caches.
func NewBatch[D comparable, Q Query, A Analysis[D, Q]](g *lang.CFG, fresh func(part string) A, queries []Q, parts []string, k int, c *Caches) *Batch[D, Q, A] {
	b := &Batch[D, Q, A]{
		g: g, fresh: fresh, queries: queries, k: k, uni: c.uni,
		part: make([]int, len(queries)),
		jobs: make([]*Job[D, Q, A], len(queries)),
	}
	index := map[string]int{}
	for q := range queries {
		part := ""
		if parts != nil {
			part = parts[q]
		}
		if _, ok := index[part]; !ok {
			index[part] = len(b.parts)
			b.parts = append(b.parts, part)
		}
		b.part[q] = index[part]
	}
	if len(b.parts) == 0 {
		b.parts = []string{""} // no queries: part 0 still names the spare's part
	}
	a := fresh(b.parts[0])
	b.n = a.NumParams()
	b.spare.Store(&a)
	b.wpc = make([]*meta.WPCache, len(b.parts))
	for i, part := range b.parts {
		_, b.wpc[i] = c.Part(part)
	}
	return b
}

// analysis returns a fresh analysis instance tracking part i.
func (b *Batch[D, Q, A]) analysis(i int) A {
	if i == 0 {
		if a := b.spare.Swap(nil); a != nil {
			return *a
		}
	}
	return b.fresh(b.parts[i])
}

// Job builds a standalone single-query problem for query q on a fresh
// analysis instance, sharing the batch's literal universe and its part's WP
// cache.
func (b *Batch[D, Q, A]) Job(q int, noDelta bool) core.Problem { return b.newJob(q, noDelta) }

func (b *Batch[D, Q, A]) newJob(q int, noDelta bool) *Job[D, Q, A] {
	i := b.part[q]
	return &Job[D, Q, A]{A: b.analysis(i), G: b.g, Q: b.queries[q], K: b.k, NoDelta: noDelta, Uni: b.uni, WPC: b.wpc[i]}
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

// FlushObs implements core.ObsFlusher for the shared literal universe and
// the parts' WP caches.
func (b *Batch[D, Q, A]) FlushObs(rec obs.Recorder) {
	meta.FlushUniverseObs(rec, b.uni)
	for _, w := range b.wpc {
		meta.FlushWPObs(rec, w)
	}
}

func (b *Batch[D, Q, A]) NumParams() int  { return b.n }
func (b *Batch[D, Q, A]) NumQueries() int { return len(b.queries) }

// RunForward returns the forward run under p. The run captures the batch
// budget so lazy per-part solves (which happen inside Check, possibly
// rounds later) stay interruptible; on a budget trip a solve holds a
// partial fixpoint and the scheduler discards that round's outcomes.
//
// Parts solve through a dataflow.Chain so they retain resumable state: the
// scheduler hands the run to the next run of its group (RunForwardFrom).
func (b *Batch[D, Q, A]) RunForward(bud *budget.Budget, p uset.Set) core.BatchRun {
	return b.start(b.newRun(bud, p))
}

// RunForwardFrom returns a run under p that resumes the donor's chain for
// each part it solves instead of solving cold. The donor hands over its
// chain for every part: the ones it solved itself, and the ones it
// inherited from its own donor and never used, so a chain keeps serving its
// part across a whole lineage of donations until the part is asked again.
// The donor is consumed: each chain (and analysis instance, whose intern
// table the chain's memo is bound to) moves to the new run, and the donor's
// results are dead. A donor that is not a run of this batch panics, naming
// its type: a wrapper must hand over the run it wraps.
func (b *Batch[D, Q, A]) RunForwardFrom(bud *budget.Budget, p uset.Set, donor core.BatchRun, donorP uset.Set) core.BatchRun {
	d, ok := donor.(*run[D, Q, A])
	if !ok || d.b != b {
		panic(fmt.Sprintf("client: donor %T is not a run of this batch", donor))
	}
	r := b.newRun(bud, p)
	for i := range r.parts {
		if own := &d.parts[i]; own.res != nil {
			r.parts[i].donor = own
		} else {
			r.parts[i].donor = own.donor
		}
	}
	return b.start(r)
}

func (b *Batch[D, Q, A]) newRun(bud *budget.Budget, p uset.Set) *run[D, Q, A] {
	return &run[D, Q, A]{b: b, bud: bud, p: p, parts: make([]partRun[D, A], len(b.parts))}
}

// start solves a one-part batch's run right away, so that the scheduler's
// parallel forward phase does the work.
func (b *Batch[D, Q, A]) start(r *run[D, Q, A]) core.BatchRun {
	if len(b.parts) == 1 {
		r.solve(0)
	}
	return r
}

type run[D comparable, Q Query, A Analysis[D, Q]] struct {
	b     *Batch[D, Q, A]
	bud   *budget.Budget
	p     uset.Set
	parts []partRun[D, A]

	mu    sync.Mutex // guards steps and the delta counters
	steps int

	resumes, reused, invalid int
}

// partRun is one part's solve within a run. The once gate lets concurrent
// checks of the part's queries wait for a single solve; a, ch and res are
// immutable after the gate opens, until a later run takes the chain over.
type partRun[D comparable, A any] struct {
	once sync.Once
	// donor is a donor run's solve of this part whose chain the solve
	// resumes. Set before the run is published to the scheduler, and
	// cleared by the solve.
	donor *partRun[D, A]
	a     A
	ch    *dataflow.Chain[D]
	res   *dataflow.Result[D]
}

// solve returns part i's solve, running it on first use: it resumes the
// donor's chain when there is one, and solves cold otherwise.
func (r *run[D, Q, A]) solve(i int) *partRun[D, A] {
	pr := &r.parts[i]
	pr.once.Do(func() {
		if d := pr.donor; d != nil && d.res != nil {
			pr.a, pr.ch = d.a, d.ch
			d.ch, d.res = nil, nil
		} else {
			pr.a = r.b.analysis(i)
			pr.ch = dataflow.NewChain[D](r.b.g)
		}
		pr.donor = nil
		pr.res = pr.ch.Solve(r.p, pr.a.Initial(), pr.a.Step, r.bud)
		resumed, reused, invalid := pr.ch.Stats()
		r.mu.Lock()
		r.steps += pr.res.Steps
		if resumed {
			r.resumes++
		}
		r.reused += reused
		r.invalid += invalid
		r.mu.Unlock()
	})
	return pr
}

// DeltaStats implements core.DeltaRun; lazy per-part solves keep accruing,
// so the counts are cumulative like Steps.
func (r *run[D, Q, A]) DeltaStats() (int, int, int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.resumes, r.reused, r.invalid
}

// Check is safe for concurrent calls with distinct queries: a part's solved
// result and its analysis are read-only once its solve returns.
func (r *run[D, Q, A]) Check(q int) (bool, lang.Trace) {
	pr := r.solve(r.b.part[q])
	node, bad, found := FindFailure(pr.a, pr.res, r.b.queries[q])
	if !found {
		return true, nil
	}
	return false, pr.res.Witness(node, bad)
}

func (r *run[D, Q, A]) Steps() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.steps
}

// Backward delegates to the per-query job; distinct queries may run
// concurrently because each job owns its analysis instance, while the
// shared literal universe and WP caches are concurrency-safe by design
// (read-mostly lock plus copy-on-write snapshots; see formula.Universe).
func (b *Batch[D, Q, A]) Backward(bud *budget.Budget, q int, p uset.Set, t lang.Trace) []core.ParamCube {
	return b.job(q).Backward(bud, p, t)
}
