package obs

import (
	"sync/atomic"
	"time"
)

// Counter names for the delta-incremental forward engines (dataflow.Chain
// and rhs.Chain). ForwardDeltaResumes counts forward solves served by the
// delta path — a retained previous run was validated against the flipped
// parameters instead of solving cold (whether or not anything had to be
// recomputed). ForwardDeltaReused counts discoveries (path edges, for the
// tabulation engine) that survived validation or were served from the
// expansion memo without re-evaluating a transfer function;
// ForwardDeltaInvalidated counts discoveries rolled back because a transfer
// application on the retained run had consulted a flipped parameter. Both
// engines feed the same names, so the counters do not say which one ran.
const (
	ForwardDeltaResumes     = "forward.delta_resumes"
	ForwardDeltaReused      = "forward.delta_reused"
	ForwardDeltaInvalidated = "forward.delta_invalidated"
)

// FlushDelta drains the delta counters a problem accumulated since its last
// flush into rec, in the fixed order resumes/reused/invalidated. Problems
// call it from FlushObs so the counts ride the same deterministic flush
// point as the formula.* and meta.* counters.
func FlushDelta(rec Recorder, resumes, reused, invalidated *atomic.Int64) {
	if n := resumes.Swap(0); n > 0 {
		rec.Count(ForwardDeltaResumes, n)
	}
	if n := reused.Swap(0); n > 0 {
		rec.Count(ForwardDeltaReused, n)
	}
	if n := invalidated.Swap(0); n > 0 {
		rec.Count(ForwardDeltaInvalidated, n)
	}
}

// Counter names recorded by core.SolveBatch's forward-run memo (see the
// "Concurrency model" section of ARCHITECTURE.md). A hit means a group's
// chosen abstraction was served by an already-available forward run (shared
// within the round or memoized from an earlier round); a miss means a fresh
// whole-program forward solve was executed.
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
// instrumented. MinsatMinimum is a timer (wall time of one Minimum call);
// MinsatSearchNodes counts branch-and-bound nodes visited;
// MinsatIncrementalReuse counts Minimum calls answered entirely from the
// solver's warm state — the cached model still satisfies every clause added
// since it was computed, or UNSAT was already proven — without visiting a
// single search node. See the "Minsat incrementality" section of
// ARCHITECTURE.md for the warm-start contract.
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
// trace similarity across iterations.
const (
	MetaWPFormulaMemoHits   = "meta.wp_formula_memo_hits"
	MetaWPFormulaMemoMisses = "meta.wp_formula_memo_misses"
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
