package core

import (
	"fmt"
	"sort"
	"strconv"
	"time"

	"tracer/internal/budget"
	"tracer/internal/faultinject"
	"tracer/internal/lang"
	"tracer/internal/minsat"
	"tracer/internal/obs"
	"tracer/internal/uset"
)

// BatchProblem poses many queries over the same program and parametric
// analysis. The framework implements the multi-query optimization of §6: it
// maintains groups of unresolved queries keyed by their set of learned
// blocking clauses; queries in a group share forward analysis runs, and a
// group splits when the meta-analysis learns different conditions for
// different queries.
//
// SolveBatch schedules work across a pool of Options.Workers goroutines, so
// implementations must tolerate concurrency: RunForward may be called
// concurrently for distinct abstractions, each returned BatchRun must allow
// concurrent Check calls (for distinct queries), and Backward must allow
// concurrent calls for distinct queries. Both driver implementations satisfy
// this by giving every run and every backward job its own analysis instance.
//
// Both phases receive the batch's cooperative budget b (nil when the batch
// is unbudgeted), under the same contract as Problem: pass it down to the
// inner loops, and on a mid-phase trip return early with a partial,
// never-falsely-proved result. Runs returned by RunForward should capture b
// so lazily computed Checks stay interruptible.
type BatchProblem interface {
	NumParams() int
	NumQueries() int
	// RunForward runs the forward analysis once under abstraction p,
	// returning a handle that answers per-query checks (lazily, so clients
	// whose queries need per-site runs only pay for the sites asked).
	RunForward(b *budget.Budget, p uset.Set) BatchRun
	// Backward analyzes query q's counterexample under p, as in Problem.
	Backward(b *budget.Budget, q int, p uset.Set, t lang.Trace) []ParamCube
}

// BatchRun is one (shared) forward run.
type BatchRun interface {
	// Check reports whether query q is proved; if not it returns an
	// abstract counterexample trace.
	Check(q int) (proved bool, trace lang.Trace)
	// Steps is the machine-independent cost of the run so far.
	Steps() int
}

// DeltaBatchProblem is a BatchProblem whose forward runs retain resumable
// state (see dataflow.Chain): RunForwardFrom seeds a fresh solve under p with
// a donor run previously produced under donorP, so the solve replays through
// the donor's expansion memo instead of starting cold. The donor is CONSUMED
// — resuming invalidates the donor's result, so the scheduler donates a run
// only after its round has closed, and to one successor only. The donor must
// be a run this problem returned; a foreign donor panics. The returned run
// must be byte-equivalent to RunForward(b, p): same check verdicts, same
// traces, same step counts.
type DeltaBatchProblem interface {
	BatchProblem
	RunForwardFrom(b *budget.Budget, p uset.Set, donor BatchRun, donorP uset.Set) BatchRun
}

// DeltaRun is implemented by runs that account path-edge reuse. The counts
// are cumulative over the run's lifetime (lazy runs keep accruing inside
// Check), mirroring Steps; the scheduler reads them once, when the run's
// round closes.
type DeltaRun interface {
	DeltaStats() (resumes, reused, invalidated int)
}

// BatchStats aggregates runner-level statistics.
type BatchStats struct {
	// ForwardRuns counts forward runs: one per distinct abstraction used
	// per scheduling round (== the number of ForwardDone events).
	ForwardRuns int
	PeakGroups  int
	TotalGroups int // groups ever created (Table 4's "# groups" analogue)
	TotalSteps  int
	// Rounds counts scheduling rounds: each round runs every live group for
	// one CEGAR iteration.
	Rounds int
	// FwdCacheHits / FwdCacheMisses count, per group iteration, whether the
	// group shared a run an earlier group of the same round had asked for,
	// or needed a fresh one. A run lives for one round, so FwdCacheMisses
	// equals ForwardRuns unless a forward run panicked.
	FwdCacheHits   int
	FwdCacheMisses int
	// DeltaResumes / PEReused / PEInvalidated aggregate the delta-incremental
	// forward engine's accounting across the batch's runs (DeltaBatchProblem
	// only; zero otherwise). DeltaResumes counts solves made while a complete
	// retained run from the same initial state existed; PEReused counts
	// expansions served from the chain's memo without a transfer call (the
	// retained run's discoveries, when it is returned as-is); PEInvalidated
	// counts memo records recomputed because a parameter flip disagreed with
	// one of their dependency literals.
	// The totals reconcile with the forward_done events: PEReused equals the
	// sum of their Reused fields, and with the forward.delta_* counters
	// recorded per forward-run phase.
	DeltaResumes  int
	PEReused      int
	PEInvalidated int
}

// BatchResult is the outcome of SolveBatch.
type BatchResult struct {
	Results []Result
	Stats   BatchStats
}

// group is a set of unresolved queries sharing a clause set.
type group struct {
	solver  *minsat.Solver
	queries []int
	// parent is the task the group's queries were checked against last
	// round (nil in the first round): its run is the one a fresh run of the
	// group resumes.
	parent *fwdTask
}

// groupPlan is the per-round scheduling state of one live group.
type groupPlan struct {
	g      *group
	minBuf *obs.Buffer // minsat telemetry from the parallel Minimum call
	p      uset.Set
	sat    bool
	// panicked is set when the group's Minimum phase panicked; the whole
	// group resolves Failed and schedules no further work this round.
	panicked *panicInfo
	// live marks plans that survived the sequential pass (satisfiable, no
	// panic) and therefore own a task and a unit range.
	live bool
	// ordinal is the global group-iteration number (IterStart.Iter); it is
	// assigned sequentially in signature order, so it is deterministic.
	ordinal int
	task    *fwdTask
	unitLo  int // index of this group's first unit in the round's unit list
}

// fwdTask is one forward run of a round: a distinct abstraction chosen by
// one or more groups.
type fwdTask struct {
	p   uset.Set
	key string
	run BatchRun
	// donor is the run the task resumes, produced under donorP: the parent
	// run of the first group that asked for the task (nil: a cold run).
	donor  BatchRun
	donorP uset.Set
	// panicked is set when the forward run panicked; every query in every
	// group sharing the task resolves Failed, and the task is not charged.
	panicked *panicInfo
	ordinal  int   // ordinal of the first group using the run
	queries  int   // queries checked against the run this round
	steps    int   // the run's steps, charged at task close
	execNS   int64 // RunForward wall time (recording only)
	checkNS  int64 // summed Check wall time (recording only)
}

// unit is one (group, query) check-and-refine step scheduled in a round.
type unit struct {
	pl *groupPlan
	q  int
}

// unitKind classifies a unit's deterministic outcome.
type unitKind uint8

const (
	uProved unitKind = iota
	uExhausted
	uMoved
	uFailed
)

// unitOut is the product of one unit. Everything the sequential merge needs
// is captured here; the unit itself touches no shared state beyond its own
// result slot.
type unitOut struct {
	kind    unitKind
	next    *minsat.Solver // uMoved: the query's refined clause set
	sig     string         // uMoved: next.Signature()
	clauses int            // uMoved and no-progress: next.NumClauses()
	buf     *obs.Buffer    // backward/clause events, replayed by the merge
	checkNS int64
	// fail describes a uFailed unit; taskFail marks it as inherited from
	// the task's RunForward panic (reported once at task close) rather than
	// the unit's own backward phase.
	fail     *panicInfo
	taskFail bool
	err      error // no-progress: the meta-analysis did not eliminate p
}

// SolveBatch resolves every query, sharing forward runs within groups. It is
// the one CEGAR loop: Solve runs it over a batch of one.
// opts.MaxIters bounds the number of forward runs any single query may
// participate in; opts.Timeout, opts.Context, and opts.MaxSteps bound the
// whole batch through one shared cooperative budget, which a group's
// diagram past minsat's node cap also trips. When the budget trips
// — even in the middle of a diagram build (line 8), forward run, or backward
// expansion — the in-flight phase aborts at its next poll, a budget_trip
// event is emitted, and every still-unresolved query resolves Exhausted
// with Result.Tripped set, carrying its accumulated partial stats
// (iterations, clauses, and forward steps so far), reconciling with its
// terminal query_resolved event.
//
// A panic in any phase is recovered at the phase boundary and confined to
// the smallest query set that depends on the panicked computation: the
// group (minimum phase), the queries sharing the run (forward phase), or
// the single query (backward phase). Affected queries resolve Failed
// (Result.Failure/Stack carry the cause) after a panic_recovered event;
// sibling groups keep resolving, and SolveBatch returns a nil error. The
// no-progress condition likewise fails only the affected query.
//
// Scheduling is round-based: each round snapshots the live groups in sorted
// signature order, computes their minimum abstractions concurrently, dedupes
// the needed forward runs by abstraction, executes them concurrently, then
// checks every (group, query) pair and runs its backward meta-analysis
// concurrently. A run lives for one round. With a DeltaBatchProblem, a fresh
// run resumes its group's last run (the parent), whatever the number of
// flipped parameters, so a group's runs form one lineage; when sibling
// groups split from one run, the first of them in signature order that needs
// a fresh run takes the parent, and the others run cold. All cross-query
// interaction — donor choice, event emission, stats, and regrouping — is
// confined to sequential merge passes in signature order, so Results, Stats,
// and the recorded event stream are identical for every Workers value (the
// one exception: a budget tripping mid-round is observed at a
// scheduling-dependent point, so which queries still resolve normally in
// that round can vary; panic confinement and fault injection do not vary).
func SolveBatch(bp BatchProblem, opts Options) (*BatchResult, error) {
	rec := opts.rec()
	recording := rec.Enabled()
	if fl, ok := bp.(ObsFlusher); ok && recording {
		defer fl.FlushObs(rec)
	}
	workers := opts.workers()
	start := time.Now()
	bud := opts.newBudget(start)
	inj := opts.Inject
	n := bp.NumQueries()
	res := &BatchResult{Results: make([]Result, n)}
	if n == 0 {
		return res, nil
	}
	// resolved finalizes query q and emits its closing event; totals match
	// the query's Result fields exactly.
	resolved := func(q int, s Status) {
		res.Results[q].Status = s
		if recording {
			rec.Record(obs.Event{
				Kind: obs.QueryResolved, Query: strconv.Itoa(q), Status: s.String(),
				Iter: res.Results[q].Iterations, Clauses: res.Results[q].Clauses,
				Steps:   res.Results[q].ForwardSteps,
				AbsSize: res.Results[q].Abstraction.Len(),
				WallNS:  int64(time.Since(start)),
			})
		}
	}
	// recordPanic emits the single panic_recovered event for one recovered
	// panic (query set only for panics confined to one query's unit).
	recordPanic := func(query string, iter int, pi *panicInfo) {
		if recording {
			rec.Record(obs.Event{Kind: obs.PanicRecovered, Query: query,
				Iter: iter, Name: pi.msg})
			rec.Count(obs.CorePanicRecovered, 1)
		}
	}
	failQuery := func(q int, pi *panicInfo) {
		res.Results[q].Failure = pi.msg
		res.Results[q].Stack = pi.stack
		resolved(q, Failed)
	}
	// tripped resolves query q Exhausted by the budget trip.
	tripped := func(q int) {
		res.Results[q].Tripped = true
		resolved(q, Exhausted)
	}
	// tripEvent emits the batch's single budget_trip event; every code path
	// calling it returns immediately after resolving the remaining queries.
	tripEvent := func() {
		if recording {
			rec.Record(obs.Event{Kind: obs.BudgetTrip,
				Name: bud.Cause().String(), WallNS: int64(time.Since(start))})
			rec.Count(obs.CoreBudgetTrip, 1)
		}
	}
	// Initial grouping. Cold batches start with one root group holding every
	// query (empty clause set). With warm-start seeds, each seeded query gets
	// its own solver pre-loaded with its surviving blocking clauses, and the
	// usual signature keying merges queries whose seeded clause sets coincide
	// — including back into the cold root when every seed deduplicates away.
	groups := map[string]*group{}
	// A batch of one query can never regroup, so it keys its one group by
	// "" instead of computing the clause set's signature every round.
	oneQuery := n == 1
	addTo := func(s *minsat.Solver, q int) {
		var sig string
		if !oneQuery {
			sig = s.Signature()
		}
		g := groups[sig]
		if g == nil {
			g = &group{solver: s}
			groups[sig] = g
			res.Stats.TotalGroups++
		}
		g.queries = append(g.queries, q)
	}
	root := minsat.New(bp.NumParams())
	for q := 0; q < n; q++ {
		var seed []ParamCube
		if opts.SeedBatch != nil {
			seed = opts.SeedBatch(q)
		}
		if len(seed) == 0 {
			addTo(root, q)
			continue
		}
		s := minsat.New(bp.NumParams())
		added := seedSolver(s, seed)
		res.Results[q].Clauses = s.NumClauses()
		if recording && added > 0 {
			rec.Record(obs.Event{Kind: obs.WarmSeed, Query: strconv.Itoa(q),
				Clauses: added})
			rec.Count(obs.CoreWarmSeededClauses, int64(added))
		}
		addTo(s, q)
	}
	ordinal := 0 // global group-iteration counter
	dbp, _ := bp.(DeltaBatchProblem)

	for len(groups) > 0 {
		res.Stats.Rounds++
		round := res.Stats.Rounds - 1 // 0-based, for fault-injection keys
		sigs := make([]string, 0, len(groups))
		for sig := range groups {
			sigs = append(sigs, sig)
		}
		sort.Strings(sigs)
		if len(sigs) > res.Stats.PeakGroups {
			res.Stats.PeakGroups = len(sigs)
		}
		if !bud.Check() {
			tripEvent()
			for _, sig := range sigs {
				for _, q := range groups[sig].queries {
					tripped(q)
				}
			}
			return res, nil
		}
		gl := make([]*group, len(sigs))
		for i, sig := range sigs {
			gl[i] = groups[sig]
		}

		// Phase A (parallel): pick each group's minimum abstraction. Each
		// solver records into its own buffer; nothing else is shared. A
		// panicking worker marks only its own plan.
		plans := make([]groupPlan, len(gl))
		for i := range plans {
			plans[i].g = gl[i]
		}
		parallelFor(workers, len(gl), func(i int) {
			pl := &plans[i]
			defer func() {
				if r := recover(); r != nil {
					pl.panicked = capturePanic(r)
				}
			}()
			if recording {
				pl.minBuf = obs.NewBuffer()
				pl.g.solver.Instrument(pl.minBuf)
			}
			if inj != nil {
				inj.At(bud, faultinject.SiteMinimum, fmt.Sprintf("r%d.g%d", round, i))
			}
			pl.p, pl.sat = pl.g.solver.MinimumBudget(bud)
		})
		// A trip during phase A makes every !sat plan ambiguous (an aborted
		// Minimum, a diagram past the node cap included, also reports
		// unsatisfiable), so resolve the whole round as Exhausted rather than
		// risk a false Impossible.
		if bud.Tripped() {
			tripEvent()
			for i := range plans {
				pl := &plans[i]
				if pl.panicked != nil {
					recordPanic("", 0, pl.panicked)
					for _, q := range pl.g.queries {
						failQuery(q, pl.panicked)
					}
					continue
				}
				for _, q := range pl.g.queries {
					tripped(q)
				}
			}
			return res, nil
		}

		// Sequential pass (signature order): resolve panicked and
		// unsatisfiable groups, assign iteration ordinals, map each surviving
		// group to the round's task for its abstraction, and give each new
		// task its group's parent run to resume unless a sibling took it.
		var tasks []*fwdTask // distinct runs used this round, first-use order
		roundTask := map[string]*fwdTask{}
		var units []unit
		for i := range plans {
			pl := &plans[i]
			if recording && pl.minBuf != nil {
				pl.minBuf.ReplayTo(rec)
			}
			if pl.panicked != nil {
				recordPanic("", 0, pl.panicked)
				for _, q := range pl.g.queries {
					failQuery(q, pl.panicked)
				}
				continue
			}
			if !pl.sat {
				for _, q := range pl.g.queries {
					resolved(q, Impossible)
				}
				continue
			}
			ordinal++
			pl.ordinal = ordinal
			pl.live = true
			if recording {
				rec.Record(obs.Event{Kind: obs.IterStart, Iter: pl.ordinal,
					AbsSize: pl.p.Len(), Clauses: pl.g.solver.NumClauses(),
					Queries: len(pl.g.queries), Groups: len(gl)})
			}
			key := pl.p.Key()
			t := roundTask[key]
			if t != nil {
				res.Stats.FwdCacheHits++
				if recording {
					rec.Count(obs.BatchFwdCacheHit, 1)
				}
			} else {
				t = &fwdTask{p: pl.p, key: key, ordinal: pl.ordinal}
				if par := pl.g.parent; dbp != nil && par != nil && par.run != nil {
					t.donor, t.donorP = par.run, par.p
					par.run = nil // a run resumes into one successor only
				}
				roundTask[key] = t
				tasks = append(tasks, t)
				res.Stats.FwdCacheMisses++
				if recording {
					rec.Count(obs.BatchFwdCacheMiss, 1)
				}
			}
			t.queries += len(pl.g.queries)
			pl.task = t
			pl.unitLo = len(units)
			for _, q := range pl.g.queries {
				res.Results[q].Iterations++
				units = append(units, unit{pl: pl, q: q})
			}
		}

		// Phase B (parallel): execute the round's forward runs. A panicking
		// run marks only its own task.
		parallelFor(workers, len(tasks), func(i int) {
			t := tasks[i]
			defer func() {
				if r := recover(); r != nil {
					t.panicked = capturePanic(r)
				}
			}()
			var s time.Time
			if recording {
				s = time.Now()
			}
			if inj != nil {
				inj.At(bud, faultinject.SiteForward, fmt.Sprintf("r%d.%s", round, t.key))
			}
			if t.donor != nil {
				t.run = dbp.RunForwardFrom(bud, t.p, t.donor, t.donorP)
			} else {
				t.run = bp.RunForward(bud, t.p)
			}
			if recording {
				t.execNS = int64(time.Since(s))
			}
		})

		// Phase C (parallel): check every query against its group's run and
		// refine its clause set from the counterexample. Each unit owns its
		// result slot and buffers its events; a panicking unit fails only
		// its own query. Skipped entirely if the budget tripped during the
		// forward phase — the runs are partial and their checks worthless.
		var outs []unitOut
		if !bud.Tripped() {
			outs = make([]unitOut, len(units))
			parallelFor(workers, len(units), func(i int) {
				outs[i] = runUnit(bp, opts, res, units[i], recording, bud, inj, round)
			})
		}

		// Close the round's forward runs in first-use order: charge each
		// run's steps and reuse (lazy runs accrue them inside Check, so this
		// runs after phase C), and report forward panics once per task.
		// Every query sharing a run is charged the run's steps, as if it had
		// run alone.
		for i := range units {
			if outs != nil {
				units[i].pl.task.checkNS += outs[i].checkNS
			}
		}
		for _, t := range tasks {
			if t.panicked != nil {
				recordPanic("", t.ordinal, t.panicked)
				continue
			}
			if t.run == nil {
				continue
			}
			t.steps = t.run.Steps()
			res.Stats.TotalSteps += t.steps
			res.Stats.ForwardRuns++
			var dr, du, di int
			if dl, ok := t.run.(DeltaRun); ok {
				dr, du, di = dl.DeltaStats()
				res.Stats.DeltaResumes += dr
				res.Stats.PEReused += du
				res.Stats.PEInvalidated += di
			}
			if recording {
				rec.Record(obs.Event{Kind: obs.ForwardDone, Iter: t.ordinal,
					AbsSize: t.p.Len(), Steps: t.steps, Queries: t.queries,
					Reused: du, WallNS: t.execNS + t.checkNS})
				if dr > 0 {
					rec.Count(obs.ForwardDeltaResumes, int64(dr))
				}
				if du > 0 {
					rec.Count(obs.ForwardDeltaReused, int64(du))
				}
				if di > 0 {
					rec.Count(obs.ForwardDeltaInvalidated, int64(di))
				}
			}
		}
		for i := range plans {
			pl := &plans[i]
			if !pl.live || pl.task.panicked != nil {
				continue
			}
			for _, q := range pl.g.queries {
				res.Results[q].ForwardSteps += pl.task.steps
			}
		}

		// A budget trip during phase B or C invalidates the round's
		// outcomes (partial runs can look proved, partial cube sets look
		// like no progress): resolve every live query Exhausted — except
		// those whose phase genuinely panicked, which stay Failed.
		if bud.Tripped() {
			tripEvent()
			for i := range plans {
				pl := &plans[i]
				if !pl.live {
					continue
				}
				for k, q := range pl.g.queries {
					var fail *panicInfo
					taskFail := true
					if outs != nil {
						if o := &outs[pl.unitLo+k]; o.kind == uFailed {
							fail, taskFail = o.fail, o.taskFail
						}
					} else {
						fail = pl.task.panicked
					}
					if fail != nil {
						if !taskFail {
							recordPanic(strconv.Itoa(q), pl.ordinal, fail)
						}
						failQuery(q, fail)
						continue
					}
					tripped(q)
				}
			}
			return res, nil
		}

		// Sequential merge (signature order, then group query order): replay
		// buffered events, finalize resolved queries, and redistribute moved
		// queries into next-round groups.
		next := map[string]*group{}
		for i := range plans {
			pl := &plans[i]
			if !pl.live {
				continue
			}
			planSigs := map[string]bool{}
			born := 0
			for k, q := range pl.g.queries {
				o := &outs[pl.unitLo+k]
				if o.buf != nil {
					o.buf.ReplayTo(rec)
				}
				switch o.kind {
				case uProved:
					res.Results[q].Abstraction = pl.p
					resolved(q, Proved)
				case uExhausted:
					resolved(q, Exhausted)
				case uFailed:
					if o.err != nil {
						// No-progress: fail the query, keep the batch.
						res.Results[q].Clauses = o.clauses
						res.Results[q].Failure = o.err.Error()
						res.Results[q].err = o.err
						resolved(q, Failed)
						continue
					}
					if !o.taskFail {
						recordPanic(strconv.Itoa(q), pl.ordinal, o.fail)
					}
					failQuery(q, o.fail)
				case uMoved:
					res.Results[q].Clauses = o.clauses
					planSigs[o.sig] = true
					g2 := next[o.sig]
					if g2 == nil {
						g2 = &group{solver: o.next, parent: pl.task}
						next[o.sig] = g2
						res.Stats.TotalGroups++
						born++
					}
					g2.queries = append(g2.queries, q)
				}
			}
			if recording && len(planSigs) > 1 {
				rec.Record(obs.Event{Kind: obs.GroupSplit, Iter: pl.ordinal,
					Groups: len(next), Queries: born})
			}
		}
		groups = next
	}
	return res, nil
}

// runUnit performs one query's check-and-refine step. It is a pure function
// of deterministic inputs (the group's abstraction and clause set, the
// query's forward run) plus the unit's exclusive result slot, so it is safe
// and deterministic to run concurrently with other units. A panic anywhere
// inside — including one injected at the backward hook — is converted into
// a uFailed outcome for this query alone.
func runUnit(bp BatchProblem, opts Options, res *BatchResult, u unit, recording bool, bud *budget.Budget, inj *faultinject.Injector, round int) (out unitOut) {
	pl, q := u.pl, u.q
	iter := res.Results[q].Iterations
	if pl.task.panicked != nil || pl.task.run == nil {
		out.kind = uFailed
		out.taskFail = true
		out.fail = pl.task.panicked
		if out.fail == nil {
			out.fail = &panicInfo{msg: "forward run unavailable"}
		}
		return out
	}
	defer func() {
		if r := recover(); r != nil {
			out = unitOut{kind: uFailed, fail: capturePanic(r), buf: out.buf, checkNS: out.checkNS}
		}
	}()
	var buf obs.Recorder = obs.Nop{}
	if recording {
		out.buf = obs.NewBuffer()
		buf = out.buf
	}
	var cs time.Time
	if recording {
		cs = time.Now()
	}
	proved, trace := pl.task.run.Check(q)
	if recording {
		out.checkNS = int64(time.Since(cs))
	}
	if proved {
		out.kind = uProved
		return out
	}
	if iter >= opts.EffectiveMaxIters() {
		out.kind = uExhausted
		return out
	}
	var bstart time.Time
	if recording {
		bstart = time.Now()
	}
	if inj != nil {
		inj.At(bud, faultinject.SiteBackward, fmt.Sprintf("r%d.q%d", round, q))
	}
	cubes := bp.Backward(bud, q, pl.p, trace)
	if recording {
		buf.Record(obs.Event{Kind: obs.BackwardDone, Query: strconv.Itoa(q),
			Iter: iter, AbsSize: pl.p.Len(),
			Cubes: len(cubes), WallNS: int64(time.Since(bstart))})
	}
	// A query alone in its group refines the group's solver in place: no
	// other unit reads it, and the group ends with this round. Otherwise
	// each query refines a clone. Either way the refined solver keeps the
	// group's diagram, so the next round's Minimum conjoins only the clauses
	// learned since instead of starting cold. When several units land on one
	// signature, the sequential merge below keeps the first unit's solver in
	// deterministic unit order, so the donated diagram is independent of the
	// worker count.
	next := pl.g.solver
	if len(pl.g.queries) > 1 {
		next = next.Clone()
	}
	covered, rejected := learnCubes(next, pl.p, cubes, buf, recording, strconv.Itoa(q), iter)
	out.clauses = next.NumClauses()
	if !covered {
		// A tripped backward walk legitimately returns cubes not covering
		// p; the merge discards the round, so don't report no-progress.
		if bud.Tripped() {
			out.kind = uExhausted
			return out
		}
		out.kind = uFailed
		out.err = fmt.Errorf("query %d: %w", q, noProgressError(pl.p, cubes, rejected))
		return out
	}
	if opts.OnLearn != nil && !bud.Tripped() {
		// Only untripped passes are recorded: a truncated backward walk may
		// return a partial cube set, and warm-start observers must never
		// persist a pass the merge is about to discard.
		opts.OnLearn(q, pl.p, trace, acceptedCubes(cubes))
	}
	out.kind = uMoved
	out.next = next
	if len(res.Results) > 1 { // a batch of one never regroups (see addTo)
		out.sig = next.Signature()
	}
	return out
}
