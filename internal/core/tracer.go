// Package core implements TRACER (Algorithm 1, §5): the iterative
// forward–backward analysis that solves the optimum abstraction problem
// (Definition 2). Given a parametric dataflow analysis and a query, TRACER
// either returns a minimum-cost abstraction that proves the query or shows
// that no abstraction in the family can prove it.
//
// Abstractions are represented uniformly as sets of "on" parameter indices
// (tracked variables for type-state; L-mapped sites for thread-escape), with
// cost = |p|. The viable set of Alg 1 is maintained as a CNF of blocking
// clauses over the parameter bits; choosing a minimum element of the viable
// set (line 8) is a minimum-cost SAT query.
package core

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"strings"
	"time"

	"tracer/internal/budget"
	"tracer/internal/faultinject"
	"tracer/internal/lang"
	"tracer/internal/minsat"
	"tracer/internal/obs"
	"tracer/internal/uset"
)

// ParamCube is a conjunction of parameter literals describing a set of
// abstractions: every abstraction containing all of Pos and none of Neg.
// The backward meta-analysis returns cubes of abstractions guaranteed to
// fail; TRACER blocks each cube.
type ParamCube struct {
	Pos, Neg uset.Set
}

func (c ParamCube) String() string {
	return fmt.Sprintf("on%s off%s", c.Pos, c.Neg)
}

// Contains reports whether abstraction p lies in the cube.
func (c ParamCube) Contains(p uset.Set) bool {
	return c.Pos.SubsetOf(p) && p.Intersect(c.Neg).Empty()
}

// Broken reports a contradictory cube: Pos and Neg overlap, so the cube
// denotes no abstraction at all. Its blocking clause would contain a literal
// and its negation, canonicalize to a tautology, and be silently dropped by
// minsat.Solver.Add — the loop would re-pick the same abstraction forever.
// The learn site rejects such cubes explicitly (clause_rejected event)
// instead of letting them vanish.
func (c ParamCube) Broken() bool {
	return !c.Pos.Intersect(c.Neg).Empty()
}

// Outcome is the result of one forward analysis run for one query.
type Outcome struct {
	Proved bool
	// Trace is an abstract counterexample when !Proved.
	Trace lang.Trace
	// Steps is a machine-independent cost measure of the run.
	Steps int
	// Reused counts path edges served by the delta-incremental forward
	// path (validated survivors of a retained run plus memo-served
	// expansions); zero for a cold run. Carried into the ForwardDone event.
	Reused int
}

// Problem is a single query posed to a parametric analysis.
//
// Both phases receive the solve's cooperative budget b (nil when the solve
// is unbudgeted — implementations must tolerate nil, which the
// budget.Budget methods do natively). A long-running phase is expected to
// pass b down to its inner loops (dataflow.SolveBudget, rhs.SolveBudget,
// meta.Client.Budget) and, when b trips mid-phase, to return early with a
// partial result: an unproved Outcome (never a false Proved from a partial
// fixpoint) or a possibly-empty cube set. The loop checks b.Tripped() after
// each phase and discards tripped-phase results, resolving Exhausted.
type Problem interface {
	// NumParams is the number of boolean abstraction parameters N; the
	// abstraction family is 2^N.
	NumParams() int
	// Forward runs the analysis instantiated at p and checks the query.
	Forward(b *budget.Budget, p uset.Set) Outcome
	// Backward runs the meta-analysis on a counterexample trace produced
	// under abstraction p, returning cubes of abstractions that are
	// guaranteed to fail the query. The cube set must cover p itself
	// (Theorem 3 clause 1 guarantees this for a sound meta-analysis).
	Backward(b *budget.Budget, p uset.Set, t lang.Trace) []ParamCube
}

// ObsFlusher is implemented by problems that accumulate internal telemetry
// counters outside the event stream — notably the formula kernel's
// interning and theory-memo statistics (the formula.* counters). Solve and
// SolveBatch flush once per solve, after the final event, and only when
// recording. Unlike events, these counters may be scheduling-dependent
// under concurrency, so they are deliberately not part of the byte-identical
// determinism contract across worker counts.
type ObsFlusher interface {
	FlushObs(rec obs.Recorder)
}

// Status classifies how a query was resolved.
type Status int

const (
	// Proved: a minimum abstraction proving the query was found.
	Proved Status = iota
	// Impossible: no abstraction in the family proves the query.
	Impossible
	// Exhausted: a budget ran out — the iteration cap, the wall deadline,
	// the step quota, or caller cancellation (the paper's timeout bucket).
	Exhausted
	// Failed: the query's own solving failed — a panic was recovered from
	// one of its phases, or the meta-analysis made no progress. Failed is
	// confined to the affected query; in SolveBatch sibling queries keep
	// resolving normally.
	Failed
)

func (s Status) String() string {
	switch s {
	case Proved:
		return "proved"
	case Impossible:
		return "impossible"
	case Exhausted:
		return "exhausted"
	case Failed:
		return "failed"
	}
	return "unknown"
}

// Result reports the resolution of one query.
type Result struct {
	Status       Status
	Abstraction  uset.Set // minimum proving abstraction when Status == Proved
	Iterations   int      // forward analysis runs
	Clauses      int      // blocking clauses learned
	ForwardSteps int      // cumulative forward solver steps
	// Tripped reports that Solve resolved Exhausted because its budget
	// tripped (deadline, context cancellation, step quota, or an injected
	// trip) rather than by reaching MaxIters. Such a verdict depends on the
	// budget (and, under a deadline, on the host), not only on the query.
	// SolveBatch leaves it false.
	Tripped bool
	// Failure describes why Status == Failed (the recovered panic value or
	// the no-progress error); empty otherwise.
	Failure string
	// Stack is the goroutine stack captured at the recovered panic, when
	// Failure stems from one. It is kept out of the obs event stream
	// (stacks embed goroutine IDs, which would break the byte-identical
	// determinism guarantee across worker counts).
	Stack string
}

// Options tunes the TRACER loop.
type Options struct {
	// MaxIters bounds the number of CEGAR iterations (0 = 1000).
	MaxIters int
	// Timeout bounds wall-clock time per query; 0 means no limit. It plays
	// the role of the paper's 1,000-minute budget: queries exceeding it are
	// reported Exhausted ("could not be resolved", Fig 12). Enforcement is
	// cooperative and mid-phase: every long-running loop polls the solve's
	// budget, so a single pathological minimum search, forward run, or
	// backward expansion is aborted within one polling interval of the
	// deadline instead of overrunning it.
	Timeout time.Duration
	// Context, when non-nil, cancels the solve cooperatively: when the
	// context is done, in-flight phases abort at their next budget poll and
	// unresolved queries are reported Exhausted with their accumulated
	// partial stats. The CLIs wire a signal.NotifyContext here so SIGINT
	// flushes traces and prints partial results.
	Context context.Context
	// MaxSteps, when > 0, bounds the total budget polls of the solve (a
	// machine-independent work quota across all phases: forward solver
	// steps, minsat search nodes, backward expansion steps). Exceeding it
	// resolves the remaining queries Exhausted.
	MaxSteps int64
	// Inject, when non-nil, fires deterministic faults (panics, delays,
	// budget trips) at the loop's named hook points; see
	// internal/faultinject. Production callers leave it nil.
	Inject *faultinject.Injector
	// Recorder receives structured telemetry from the loop (see
	// internal/obs): one IterStart/ForwardDone pair per forward run,
	// BackwardDone and ClauseLearned while refining, and a final
	// QueryResolved whose totals match the returned Result exactly. nil
	// means no recording.
	Recorder obs.Recorder
	// Workers is the size of SolveBatch's worker pool: independent query
	// groups (and the per-query meta-analyses within a group) are scheduled
	// concurrently across it. 0 or 1 means sequential. Results, stats, and
	// the recorded event stream are identical for every value. Ignored by
	// the single-query Solve.
	Workers int
	// Seed, when non-empty, blocks the given cubes before iteration 1 of a
	// single-query Solve — the warm-start path. Seeding is sound only if
	// every seeded cube still describes exclusively failing abstractions
	// for this query; internal/warm establishes that via IR-delta
	// invalidation before handing cubes here. Ignored by SolveBatch (use
	// SeedBatch).
	Seed []ParamCube
	// SeedBatch, when non-nil, supplies warm-start cubes per batch query
	// index; it is consulted once per query before the first round, and the
	// initial query groups are formed from the seeded clause sets instead
	// of one shared root group. nil (or all-empty) keeps the cold batch
	// path unchanged. Ignored by the single-query Solve.
	SeedBatch func(q int) []ParamCube
	// NoDelta disables SolveBatch's delta-resume path: evicted or near-miss
	// forward runs are never resumed across an abstraction flip, so every
	// cache miss is a cold whole-program solve. Per-problem delta behavior
	// (the single-query jobs' retained chains) is controlled on the problem
	// itself; this knob only governs the batch scheduler's donor selection.
	NoDelta bool
	// OnLearn, when non-nil, observes every successful backward pass: the
	// abstraction p that was eliminated, its counterexample trace, and the
	// accepted (non-contradictory) cubes that were blocked. q is the batch
	// query index (0 for the single-query Solve). The warm-start layer
	// records these to disk. Calls are only made for passes that satisfied
	// the progress guarantee under an untripped budget, so the cube set is
	// never partial. Must be safe for concurrent calls when Workers > 1.
	OnLearn func(q int, p uset.Set, t lang.Trace, cubes []ParamCube)
}

func (o Options) maxIters() int {
	if o.MaxIters <= 0 {
		return 1000
	}
	return o.MaxIters
}

func (o Options) workers() int {
	if o.Workers <= 1 {
		return 1
	}
	return o.Workers
}

func (o Options) rec() obs.Recorder { return obs.Default(o.Recorder) }

// newBudget builds the solve's cooperative budget, or nil when nothing
// bounds the solve (the common fully-trusted path keeps its zero-cost nil
// polls). A fault injector forces a budget so injected trips have a place
// to land.
func (o Options) newBudget(start time.Time) *budget.Budget {
	if o.Context == nil && o.Timeout <= 0 && o.MaxSteps <= 0 && o.Inject == nil {
		return nil
	}
	var deadline time.Time
	if o.Timeout > 0 {
		deadline = start.Add(o.Timeout)
	}
	return budget.New(o.Context, deadline, o.MaxSteps)
}

// ErrNoProgress reports a meta-analysis that failed to eliminate the
// abstraction whose run it analyzed; it indicates an unsound backward
// transfer function and is returned rather than silently looping.
var ErrNoProgress = errors.New("core: backward meta-analysis did not eliminate the current abstraction")

// learnCubes is the shared learn site of Solve and the batch runUnit: it
// blocks every well-formed cube of one backward pass in s and reports
// whether the cube set covers p — the progress guarantee (Theorem 3 clause
// 1): some learned clause must eliminate the abstraction whose
// counterexample was analyzed, or the next Minimum re-picks it.
//
// Contradictory cubes (Broken: Pos ∩ Neg ≠ ∅) are rejected here rather than
// passed to the solver, where their tautological blocking clauses would be
// silently dropped by canonicalization; each rejection emits a
// clause_rejected event naming the cube and bumps the CoreClauseRejected
// counter. query tags batch-mode events ("" for the single-query Solve).
func learnCubes(s *minsat.Solver, p uset.Set, cubes []ParamCube, rec obs.Recorder, recording bool, query string, iter int) (covered bool, rejected []ParamCube) {
	for _, c := range cubes {
		if c.Broken() {
			rejected = append(rejected, c)
			if recording {
				rec.Record(obs.Event{Kind: obs.ClauseRejected, Query: query,
					Iter: iter, Name: c.String()})
				rec.Count(obs.CoreClauseRejected, 1)
			}
			continue
		}
		before := s.NumClauses()
		s.Block(c.Pos, c.Neg)
		if recording && s.NumClauses() > before {
			rec.Record(obs.Event{Kind: obs.ClauseLearned, Query: query,
				Iter: iter, Clauses: s.NumClauses()})
		}
		if c.Contains(p) {
			covered = true
		}
	}
	return covered, rejected
}

// seedSolver blocks warm-start cubes in s, returning how many clauses were
// genuinely added (broken cubes are skipped defensively — a corrupted store
// must not abort the solve).
func seedSolver(s *minsat.Solver, seed []ParamCube) int {
	cs := make([]minsat.Clause, 0, len(seed))
	for _, c := range seed {
		if c.Broken() {
			continue
		}
		cs = append(cs, minsat.BlockingClause(c.Pos, c.Neg))
	}
	return s.SeedClauses(cs)
}

// acceptedCubes filters out contradictory cubes, mirroring what learnCubes
// actually blocked; the result is what OnLearn observers may persist.
func acceptedCubes(cubes []ParamCube) []ParamCube {
	out := make([]ParamCube, 0, len(cubes))
	for _, c := range cubes {
		if !c.Broken() {
			out = append(out, c)
		}
	}
	return out
}

// noProgressError builds the diagnostic for a backward pass that violated
// the progress guarantee, naming the offending cubes so the unsound
// transfer function can be found from the error alone.
func noProgressError(p uset.Set, cubes, rejected []ParamCube) error {
	render := func(cs []ParamCube) string {
		parts := make([]string, len(cs))
		for i, c := range cs {
			parts[i] = c.String()
		}
		return "[" + strings.Join(parts, "; ") + "]"
	}
	detail := "no cubes returned"
	if len(cubes) > 0 {
		detail = "cubes " + render(cubes) + " do not cover p"
	}
	if len(rejected) > 0 {
		detail += "; rejected contradictory " + render(rejected)
	}
	return fmt.Errorf("%w (p=%s: %s)", ErrNoProgress, p, detail)
}

// Solve runs Algorithm 1 for a single query.
//
// Failure model: every exit emits exactly one terminal QueryResolved event.
// A tripped budget (deadline, context cancellation, step quota, or injected
// trip) aborts the current phase cooperatively and resolves Exhausted with
// the accumulated partial stats, after a budget_trip event. A panic in any
// phase is recovered here and resolves Failed (Result.Failure/Stack carry
// the cause), after a panic_recovered event; Solve then returns a nil
// error, so one poisoned query cannot crash a caller iterating many. The
// no-progress condition also resolves Failed but still returns
// ErrNoProgress, since it indicates an unsound backward transfer function
// rather than a bad input.
func Solve(pr Problem, opts Options) (res Result, err error) {
	rec := opts.rec()
	recording := rec.Enabled()
	if fl, ok := pr.(ObsFlusher); ok && recording {
		defer fl.FlushObs(rec)
	}
	start := time.Now()
	bud := opts.newBudget(start)
	inj := opts.Inject
	// One solver lives across all CEGAR iterations, so after each round's
	// Block the next Minimum re-searches from the previous cost floor (or is
	// answered from the cached model outright) instead of starting cold — see
	// the incrementality contract in internal/minsat.
	solver := minsat.New(pr.NumParams())
	if recording {
		solver.Instrument(rec)
	}
	if len(opts.Seed) > 0 {
		added := seedSolver(solver, opts.Seed)
		res.Clauses = solver.NumClauses()
		if recording && added > 0 {
			rec.Record(obs.Event{Kind: obs.WarmSeed, Clauses: added})
			rec.Count(obs.CoreWarmSeededClauses, int64(added))
		}
	}
	resolved := func(s Status) Result {
		res.Status = s
		if recording {
			rec.Record(obs.Event{
				Kind: obs.QueryResolved, Status: s.String(),
				Iter: res.Iterations, Clauses: res.Clauses,
				Steps: res.ForwardSteps, AbsSize: res.Abstraction.Len(),
				WallNS: int64(time.Since(start)),
			})
		}
		return res
	}
	tripped := func() Result {
		res.Tripped = true
		if recording {
			rec.Record(obs.Event{Kind: obs.BudgetTrip, Iter: res.Iterations,
				Name: bud.Cause().String(), WallNS: int64(time.Since(start))})
			rec.Count(obs.CoreBudgetTrip, 1)
		}
		return resolved(Exhausted)
	}
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		res.Abstraction = nil
		res.Failure = fmt.Sprint(r)
		res.Stack = string(debug.Stack())
		err = nil
		if recording {
			rec.Record(obs.Event{Kind: obs.PanicRecovered,
				Iter: res.Iterations, Name: res.Failure})
			rec.Count(obs.CorePanicRecovered, 1)
		}
		resolved(Failed)
	}()
	for res.Iterations < opts.maxIters() {
		if !bud.Check() {
			return tripped(), nil
		}
		inj.At(bud, faultinject.SiteMinimum, fmt.Sprintf("i%d", res.Iterations+1))
		p, ok := solver.MinimumBudget(bud)
		if bud.Tripped() {
			return tripped(), nil
		}
		if !ok {
			return resolved(Impossible), nil
		}
		res.Iterations++
		if recording {
			rec.Record(obs.Event{Kind: obs.IterStart, Iter: res.Iterations,
				AbsSize: p.Len(), Clauses: solver.NumClauses()})
		}
		var phase time.Time
		if recording {
			phase = time.Now()
		}
		inj.At(bud, faultinject.SiteForward, fmt.Sprintf("i%d", res.Iterations))
		out := pr.Forward(bud, p)
		res.ForwardSteps += out.Steps
		if recording {
			rec.Record(obs.Event{Kind: obs.ForwardDone, Iter: res.Iterations,
				AbsSize: p.Len(), Steps: out.Steps, Reused: out.Reused,
				WallNS: int64(time.Since(phase))})
		}
		// A partial forward fixpoint can fail to reach the failing state and
		// look "proved"; discard the outcome of a tripped run.
		if bud.Tripped() {
			return tripped(), nil
		}
		if out.Proved {
			res.Abstraction = p
			return resolved(Proved), nil
		}
		if recording {
			phase = time.Now()
		}
		inj.At(bud, faultinject.SiteBackward, fmt.Sprintf("i%d", res.Iterations))
		cubes := pr.Backward(bud, p, out.Trace)
		if recording {
			rec.Record(obs.Event{Kind: obs.BackwardDone, Iter: res.Iterations,
				AbsSize: p.Len(), Cubes: len(cubes), WallNS: int64(time.Since(phase))})
		}
		// A truncated backward walk may return cubes not covering p; that is
		// budget pressure, not unsoundness — don't report no-progress.
		if bud.Tripped() {
			return tripped(), nil
		}
		covered, rejected := learnCubes(solver, p, cubes, rec, recording, "", res.Iterations)
		res.Clauses = solver.NumClauses()
		if !covered {
			err := noProgressError(p, cubes, rejected)
			res.Failure = err.Error()
			return resolved(Failed), err
		}
		if opts.OnLearn != nil {
			opts.OnLearn(0, p, out.Trace, acceptedCubes(cubes))
		}
	}
	return resolved(Exhausted), nil
}
