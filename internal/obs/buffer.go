package obs

import "time"

// Counter names for the delta-incremental forward engines (dataflow.Chain
// and rhs.Chain), counted by core's loop from each forward run's
// accounting (core.DeltaRun). ForwardDeltaResumes counts forward solves
// made while a complete retained run from the same initial state existed
// (whether it was returned as-is or replayed through the memo).
// ForwardDeltaReused counts expansions (transfer applications, for the
// tabulation engine) served from the chain's memo without re-evaluating a
// transfer function; on the fast path, which returns the retained run, it
// counts that run's discoveries. ForwardDeltaInvalidated counts memo records
// recomputed because one of their dependency literals disagreed with the
// new abstraction. Both engines feed the same names, so the counters do not
// say which one ran.
const (
	ForwardDeltaResumes     = "forward.delta_resumes"
	ForwardDeltaReused      = "forward.delta_reused"
	ForwardDeltaInvalidated = "forward.delta_invalidated"
)

// Counter names recorded by core.SolveBatch per group iteration (see the
// "Concurrency model" section of ARCHITECTURE.md). A hit means the group
// shared a forward run an earlier group of the same round asked for; a miss
// means a fresh whole-program forward run, one per BatchStats.ForwardRuns.
const (
	BatchFwdCacheHit  = "batch.fwd_cache_hit"
	BatchFwdCacheMiss = "batch.fwd_cache_miss"
)

// Counter names for the failure paths of core.Solve/SolveBatch: one
// CorePanicRecovered per panic caught and converted to a Failed result, one
// CoreBudgetTrip per solve whose budget tripped (mirroring the
// panic_recovered / budget_trip events).
const (
	CorePanicRecovered = "core.panic_recovered"
	CoreBudgetTrip     = "core.budget_trip"
	// CoreClauseRejected counts contradictory cubes rejected at the learn
	// site (mirroring the clause_rejected events).
	CoreClauseRejected = "core.clause_rejected"
)

// Names recorded by the minimum-model solver (minsat.Solver) when
// instrumented. MinsatMinimum is a timer (wall time of one Minimum call).
// MinsatSearchNodes counts the line-8 work charged to the budget: nodes made
// in the solver's BDD of the viable set. MinsatIncrementalReuse counts
// Minimum calls answered from the previous answer without a walk: the
// diagram did not change since, or UNSAT was already proven. A diagram past
// the node cap has no counter of its own: it trips the call's budget (cause
// "space"), which core reports as a budget_trip event. See the "Line 8"
// section of ARCHITECTURE.md.
const (
	MinsatMinimum          = "minsat.minimum"
	MinsatSearchNodes      = "minsat.search_nodes"
	MinsatIncrementalReuse = "minsat.incremental_reuse"
)

// Counter/gauge names for the interned formula kernel (formula.Universe).
// Problems that own a universe implement core.ObsFlusher; Solve/SolveBatch
// flush these once per solve, after the event stream. FormulaUniverseSize is
// a gauge (interned literal count); the others are deltas since the previous
// flush. See the "Formula kernel" section of ARCHITECTURE.md.
// FormulaSubsumptionChecks counts full (bitset-row) entailment checks only;
// FormulaSigFiltered counts candidate×kept Simplify pairs dismissed by the
// signature/watched-literal pre-filter before any cube was dereferenced, so
// the filter hit rate is sig_filtered / (sig_filtered + subsumption_checks).
// FormulaSigSkips counts whole unsat/reduce scans proven unnecessary by
// capability signatures inside And/Or.
const (
	FormulaUniverseSize      = "formula.universe_size"
	FormulaCubeProducts      = "formula.cube_products"
	FormulaSubsumptionChecks = "formula.subsumption_checks"
	FormulaSigFiltered       = "formula.sig_filtered"
	FormulaSigSkips          = "formula.sig_skips"
	FormulaTheoryMemoHits    = "formula.theory_memo_hits"
	FormulaTheoryMemoFills   = "formula.theory_memo_fills"
)

// Names recorded by the weakest-precondition cache (meta.WPCache).
// MetaWPFormulaMemoHits counts whole-formula wp applications answered from
// the per-atom formula memo — each hit skips an entire per-cube
// substitution pass, And chain included; misses count the applications that
// had to compute (and then stored their result). Backward walks of
// successive CEGAR iterations revisit the same (atom, formula) pairs
// whenever counterexample traces share structure, so the hit rate tracks
// trace similarity across iterations. MetaWalkAtoms counts the trace atoms
// backward walks visited, and MetaWalkChanged those at which some literal of
// the walk's formula had a non-identity precondition, so the walk recomputed
// the formula; every other atom costs the walk one footprint mask test.
const (
	MetaWPFormulaMemoHits   = "meta.wp_formula_memo_hits"
	MetaWPFormulaMemoMisses = "meta.wp_formula_memo_misses"
	MetaWalkAtoms           = "meta.walk_atoms"
	MetaWalkChanged         = "meta.walk_changed"
)

// Counter names for warm-start solving. CoreWarmSeededClauses is recorded by
// core.Solve/SolveBatch (clauses genuinely added from Options.Seed/SeedBatch,
// mirroring the warm_seed events); the warm.* names are recorded by the store
// layer (internal/warm) against the Recorder handed to warm.Open. QueryHit
// counts queries that found a usable stored entry; ClausesLoaded/Invalidated
// count per-clause survival of the IR delta check; ReplayExhausted counts
// stored Exhausted verdicts returned without re-solving (exact
// fingerprint+budget match only); EntriesCorrupt counts snapshot files or
// entries dropped as unreadable (the cold-fallback path).
const (
	CoreWarmSeededClauses  = "core.warm_seeded_clauses"
	WarmQueryHit           = "warm.query_hit"
	WarmQueryMiss          = "warm.query_miss"
	WarmClausesLoaded      = "warm.clauses_loaded"
	WarmClausesInvalidated = "warm.clauses_invalidated"
	WarmReplayExhausted    = "warm.replay_exhausted"
	WarmEntriesCorrupt     = "warm.entries_corrupt"
	WarmSnapshots          = "warm.snapshots"
)

// Counter/gauge/timer names recorded by the solver daemon (internal/server).
// ServerAccepted counts admitted requests (mirroring the request_accepted
// events); the ServerRejected* counters partition turned-away requests by
// reason (mirroring request_rejected). ServerBatches counts executed
// coalescing rounds; ServerCoalesced counts requests that shared a round with
// at least one other request; ServerExpired counts requests whose per-request
// deadline passed while still queued (resolved Exhausted without solving).
// ServerQueueDepth is a gauge of the accept queue's high-water mark.
// ServerBatchWait times enqueue→round-start per request; ServerBatchSolve
// times one round's SolveBatch wall.
const (
	ServerAccepted       = "server.accepted"
	ServerRejectedBadReq = "server.rejected_bad_request"
	ServerRejectedQueue  = "server.rejected_queue_full"
	ServerRejectedQuota  = "server.rejected_quota"
	ServerRejectedDrain  = "server.rejected_draining"
	ServerBatches        = "server.batches"
	ServerCoalesced      = "server.coalesced"
	ServerExpired        = "server.expired_in_queue"
	ServerQueueDepth     = "server.queue_depth"
	ServerBatchWait      = "server.batch_wait"
	ServerBatchSolve     = "server.batch_solve"
)

// opKind discriminates the buffered record types.
type opKind uint8

const (
	opEvent opKind = iota
	opCount
	opGauge
	opTiming
)

// op is one buffered record.
type op struct {
	kind opKind
	e    Event
	name string
	v    int64
	d    time.Duration
}

// Buffer is a Recorder that retains records in order for later replay into
// another sink. The parallel batch scheduler gives each concurrent work
// unit its own Buffer and replays them in a deterministic merge order, so
// the observable event stream is independent of goroutine interleaving.
//
// A Buffer is NOT safe for concurrent use: it is meant to be owned by a
// single goroutine and replayed after that goroutine has finished (with a
// happens-before edge between the two, e.g. a WaitGroup).
type Buffer struct {
	ops []op
}

// NewBuffer returns an empty buffer.
func NewBuffer() *Buffer { return &Buffer{} }

func (b *Buffer) Enabled() bool  { return true }
func (b *Buffer) Record(e Event) { b.ops = append(b.ops, op{kind: opEvent, e: e}) }
func (b *Buffer) Count(name string, delta int64) {
	b.ops = append(b.ops, op{kind: opCount, name: name, v: delta})
}
func (b *Buffer) Gauge(name string, v int64) {
	b.ops = append(b.ops, op{kind: opGauge, name: name, v: v})
}
func (b *Buffer) Timing(name string, d time.Duration) {
	b.ops = append(b.ops, op{kind: opTiming, name: name, d: d})
}

// Len reports how many records are buffered.
func (b *Buffer) Len() int { return len(b.ops) }

// ReplayTo forwards every buffered record, in order, to r.
func (b *Buffer) ReplayTo(r Recorder) {
	for _, o := range b.ops {
		switch o.kind {
		case opEvent:
			r.Record(o.e)
		case opCount:
			r.Count(o.name, o.v)
		case opGauge:
			r.Gauge(o.name, o.v)
		case opTiming:
			r.Timing(o.name, o.d)
		}
	}
}
