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
//
// The loop is written once, in SolveBatch, which runs it over groups of
// queries keyed by their learned clauses (the multi-query optimization of
// §6). Solve is a batch of one query.
package core

import (
	"context"
	"errors"
	"fmt"
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
	// Resumed, Reused and Invalidated account the delta-incremental
	// forward path: whether a complete retained run from the same initial
	// state existed, how many expansions (transfer applications, for the
	// tabulation engine) the run served from the chain's memo without a
	// transfer call, and how many memo records it recomputed because a
	// parameter flip disagreed with them. All zero for a run on an empty
	// memo. The loop counts them on the forward.delta_* counters and
	// carries Reused into the ForwardDone event.
	Resumed     bool
	Reused      int
	Invalidated int
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
// interning and theory-memo statistics (the formula.* counters). The loop
// flushes once per Solve or SolveBatch, after the final event, and only when
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
	// Tripped reports that the query resolved Exhausted because the budget
	// tripped (deadline, context cancellation, step quota, or an injected
	// trip) rather than by reaching MaxIters. Such a verdict depends on the
	// budget (and, under a deadline, on the host), not only on the query.
	// In a batch every query the trip resolves carries it.
	Tripped bool
	// Failure describes why Status == Failed (the recovered panic value or
	// the no-progress error); empty otherwise.
	Failure string
	// Stack is the goroutine stack captured at the recovered panic, when
	// Failure stems from one. It is kept out of the obs event stream
	// (stacks embed goroutine IDs, which would break the byte-identical
	// determinism guarantee across worker counts).
	Stack string
	// err is the no-progress error behind a Failed result; Solve returns it.
	err error
}

// Options tunes the TRACER loop.
type Options struct {
	// MaxIters bounds the number of CEGAR iterations (0 = 1000): a query
	// whose MaxIters-th forward run fails resolves Exhausted without a
	// backward pass over that run.
	MaxIters int
	// Timeout bounds wall-clock time per query; 0 means no limit. It plays
	// the role of the paper's 1,000-minute budget: queries exceeding it are
	// reported Exhausted ("could not be resolved", Fig 12). Enforcement is
	// cooperative and mid-phase: every long-running loop polls the solve's
	// budget, so a single pathological diagram build (line 8), forward run,
	// or backward expansion is aborted within one polling interval of the
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
	// steps, minsat diagram nodes, backward expansion steps). Exceeding it
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
	// the recorded event stream are identical for every value. A Solve has
	// one group and one query, so it runs sequentially whatever the value.
	Workers int
	// Seed, when non-empty, blocks the given cubes before Solve's first
	// iteration — the warm-start path; Solve hands it to the loop as its
	// query's SeedBatch. Seeding is sound only if every seeded cube still
	// describes exclusively failing abstractions for this query;
	// internal/warm establishes that via IR-delta invalidation before
	// handing cubes here. Ignored by SolveBatch (use SeedBatch).
	Seed []ParamCube
	// SeedBatch, when non-nil, supplies warm-start cubes per batch query
	// index; it is consulted once per query before the first round, and the
	// initial query groups are formed from the seeded clause sets instead
	// of one shared root group. nil (or all-empty) keeps the cold batch
	// path unchanged. Solve replaces it with Seed.
	SeedBatch func(q int) []ParamCube
	// OnLearn, when non-nil, observes every successful backward pass: the
	// abstraction p that was eliminated, its counterexample trace, and the
	// accepted (non-contradictory) cubes that were blocked. q is the batch
	// query index (0 for Solve). The warm-start layer
	// records these to disk. Calls are only made for passes that satisfied
	// the progress guarantee under an untripped budget, so the cube set is
	// never partial. Must be safe for concurrent calls when Workers > 1.
	OnLearn func(q int, p uset.Set, t lang.Trace, cubes []ParamCube)
}

// EffectiveMaxIters returns the iteration cap the loop applies: MaxIters,
// or its default of 1000 when MaxIters is 0 or less. Callers that record
// the cap a verdict was reached under (the warm store) read it here.
func (o Options) EffectiveMaxIters() int {
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

// newBudget builds the solve's cooperative budget. A solve that nothing
// bounds still gets one, with no limits: a diagram past minsat's node cap
// and a fault injector trip it, and the trip resolves the solve Exhausted.
func (o Options) newBudget(start time.Time) *budget.Budget {
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

// learnCubes is the learn site of the loop (runUnit): it blocks every
// well-formed cube of one backward pass in s and reports whether the cube
// set covers p — the progress guarantee (Theorem 3 clause 1): some learned
// clause must eliminate the abstraction whose counterexample was analyzed,
// or the next Minimum re-picks it.
//
// Contradictory cubes (Broken: Pos ∩ Neg ≠ ∅) are rejected here rather than
// passed to the solver, where their tautological blocking clauses would be
// silently dropped by canonicalization; each rejection emits a
// clause_rejected event naming the cube and bumps the CoreClauseRejected
// counter. query tags the events.
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

// Solve runs Algorithm 1 for a single query: it is SolveBatch over a batch
// of one (solo), so the loop, its failure model, its fault-injection keys
// and its events are SolveBatch's. opts.Seed seeds the query; SeedBatch and
// Workers are ignored. The loop tags the query's events "0"; Solve maps
// that back to untagged, so a caller names the solve with obs.Tag.
//
// A tripped budget resolves Exhausted with Result.Tripped set, and a panic
// in any phase resolves Failed with a nil error, so one poisoned query
// cannot crash a caller iterating many. The no-progress condition also
// resolves Failed but returns an error wrapping ErrNoProgress, since it
// indicates an unsound backward transfer function rather than a bad input.
func Solve(pr Problem, opts Options) (Result, error) {
	seed := opts.Seed
	opts.SeedBatch = func(int) []ParamCube { return seed }
	opts.Recorder = obs.Retag(opts.Recorder, []string{""}, "")
	res, err := SolveBatch(solo{pr}, opts)
	if err != nil {
		return Result{}, err
	}
	r := res.Results[0]
	return r, r.err
}

// solo poses a Problem as a one-query BatchProblem. A run is the Outcome
// of one pr.Forward call, made in RunForward; Check(0) and DeltaStats
// answer from it. solo is not a DeltaBatchProblem: the problem keeps its
// own forward state between runs (client.Job's retained chain).
type solo struct{ pr Problem }

func (s solo) NumParams() int  { return s.pr.NumParams() }
func (s solo) NumQueries() int { return 1 }

func (s solo) RunForward(b *budget.Budget, p uset.Set) BatchRun {
	return &soloRun{s.pr.Forward(b, p)}
}

func (s solo) Backward(b *budget.Budget, _ int, p uset.Set, t lang.Trace) []ParamCube {
	return s.pr.Backward(b, p, t)
}

func (s solo) FlushObs(rec obs.Recorder) {
	if fl, ok := s.pr.(ObsFlusher); ok {
		fl.FlushObs(rec)
	}
}

type soloRun struct{ out Outcome }

func (r *soloRun) Check(int) (bool, lang.Trace) { return r.out.Proved, r.out.Trace }
func (r *soloRun) Steps() int                   { return r.out.Steps }

func (r *soloRun) DeltaStats() (resumes, reused, invalidated int) {
	if r.out.Resumed {
		resumes = 1
	}
	return resumes, r.out.Reused, r.out.Invalidated
}
