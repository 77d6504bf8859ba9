// Package client states once the contract a parametric dataflow analysis
// implements to be solved by TRACER — a forward transfer function indexed by
// the abstraction and a backward meta-analysis of weakest preconditions
// (§3.2, §4) — and writes the solver plumbing once against it: the
// single-query problem on the inlined CFG (Job) and the multi-query problem
// of §6 (Batch), in which each query names the part of the program its
// analysis tracks (the allocation site for type-state, one shared part for
// a query-independent analysis); the tabulation twin of Job is
// driver.RHSJob. A client package supplies its analysis, theory and WP, plus
// the few adapter methods of Analysis; the hot loops stay in dataflow, rhs,
// meta and formula, so the generic layer costs one indirect call per CEGAR
// phase.
package client

import (
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

// Query is the part of a client's query payload the generic layer reads.
type Query interface {
	// At lists the CFG nodes where the query is checked (a source point may
	// correspond to several nodes after inlining).
	At() []int
}

// Analysis is the client contract over abstract states D and queries Q. An
// instance interns states, so it is not safe for concurrent use; the
// generic layer gives every concurrently running forward run and backward
// job its own instance.
type Analysis[D comparable, Q Query] interface {
	// NumParams is the number N of boolean parameters; the family is 2^N.
	NumParams() int
	// ParamName names parameter i in reports.
	ParamName(i int) string

	// Initial is the initial abstract state dI.
	Initial() D
	// Transfer instantiates the forward transfer function at abstraction p.
	Transfer(p uset.Set) dataflow.Transfer[D]
	// TransferDep is Transfer that also returns, per application, the
	// signed literal of the parameter it read (dataflow.DepLit), which the
	// delta engines use to resume a retained run across abstraction flips.
	TransferDep(p uset.Set) dataflow.DepTransfer[D]
	// Holds reports whether the abstract state d satisfies query q.
	Holds(q Q, d D) bool

	// Theory is the literal theory of the meta-analysis formulas.
	Theory() formula.Theory
	// WP is the weakest precondition of primitive prim across atom at.
	WP(at lang.Atom, prim formula.Prim) formula.Formula
	// NotQ is the failure condition ¬q the backward pass starts from.
	NotQ(q Q) formula.Formula
	// EvalLit evaluates literal l at abstraction p and state d.
	EvalLit(l formula.Lit, p uset.Set, d D) bool
	// ParamLit maps a parameter primitive to its parameter index and to
	// whether the positive literal asks for the parameter to be on; ok is
	// false for state primitives.
	ParamLit(pr formula.Prim) (param int, on, ok bool)
}

// Job poses one query of client analysis A on one CFG as a core.Problem. K
// is the beam width of the meta-analysis's under-approximation (k in §4.1;
// the paper uses k=5 for the evaluation and k=1 in the worked examples). K ≤
// 0 disables under-approximation.
type Job[D comparable, Q Query, A Analysis[D, Q]] struct {
	A A
	G *lang.CFG
	Q Q
	K int

	// NoDelta disables the delta-incremental forward path (dataflow.Chain),
	// so every CEGAR iteration solves cold through dataflow.SolveBudget. The
	// differential suite and the oracle use it as the reference executor.
	NoDelta bool

	// Uni and WPC, when set, are the interned literal universe and the
	// weakest-precondition cache the job shares with other problems: a
	// Batch sets them from its Caches, so every job of one program's client
	// and part fills the same ones (both are concurrency-safe). Client fills
	// them lazily when nil, and they then serve this job's CEGAR iterations
	// only.
	Uni *formula.Universe
	WPC *meta.WPCache

	// chain is the resumable forward solver retained across CEGAR
	// iterations. It is checked out with an atomic swap for the duration of
	// a solve, so concurrent Forward calls on one job fall back to a fresh
	// chain instead of racing, and stored back only after a solve returns
	// normally (a trip poisons its retained run internally; a panic abandons
	// the chain entirely, so the next solve starts cold).
	chain atomic.Pointer[dataflow.Chain[D]]

	// Delta accounting since the last FlushObs, mirroring the chain's Stats.
	deltaResumes, deltaReused, deltaInvalid atomic.Int64
}

// NumParams returns the size N of the abstraction family 2^N.
func (j *Job[D, Q, A]) NumParams() int { return j.A.NumParams() }

// ParamName names parameter i.
func (j *Job[D, Q, A]) ParamName(i int) string { return j.A.ParamName(i) }

// Forward runs the forward analysis under abstraction p and checks the
// query at every node it covers, returning a witness trace for a failing
// state. A budget trip mid-solve yields an unproved partial outcome (a
// partial fixpoint may simply not have reached the failing state yet, so
// its "no failure found" cannot be trusted as a proof).
func (j *Job[D, Q, A]) Forward(b *budget.Budget, p uset.Set) core.Outcome {
	if j.NoDelta {
		return j.outcome(b, dataflow.SolveBudget(j.G, j.A.Initial(), j.A.Transfer(p), b))
	}
	ch := j.chain.Swap(nil)
	if ch == nil {
		ch = dataflow.NewChain[D](j.G)
	}
	res := ch.Solve(p, j.A.Initial(), j.A.TransferDep(p), b)
	resumed, reused, invalid := ch.Stats()
	if resumed {
		j.deltaResumes.Add(1)
		j.deltaReused.Add(int64(reused))
		j.deltaInvalid.Add(int64(invalid))
	}
	out := j.outcome(b, res)
	if resumed {
		out.Reused = reused
	}
	j.chain.Store(ch)
	return out
}

// outcome checks the query against a forward result and extracts a witness.
func (j *Job[D, Q, A]) outcome(b *budget.Budget, res *dataflow.Result[D]) core.Outcome {
	if b.Tripped() {
		return core.Outcome{Steps: res.Steps}
	}
	node, bad, ok := FindFailure(j.A, res, j.Q)
	if !ok {
		return core.Outcome{Proved: true, Steps: res.Steps}
	}
	return core.Outcome{Trace: res.Witness(node, bad), Steps: res.Steps}
}

// FindFailure scans the query's nodes in a solved result for a violating
// state, returning the first one in discovery order. Discovery order is a
// pure function of the CFG, the abstraction, and the initial state —
// independent of the analysis instance's intern history — so the choice is
// stable between a fresh cold run and a delta resume on a retained
// analysis. The batch problems share it to check many queries against one
// forward run; a must be the instance that produced res.
func FindFailure[D comparable, Q Query, A Analysis[D, Q]](a A, res *dataflow.Result[D], q Q) (node int, bad D, ok bool) {
	for _, n := range q.At() {
		for _, d := range res.States(n) {
			if !a.Holds(q, d) {
				return n, d, true
			}
		}
	}
	return 0, bad, false
}

// Client builds the meta-analysis client for abstraction p. Weakest
// preconditions do not depend on p, so all clients of this job share its
// memoization cache (and literal universe).
func (j *Job[D, Q, A]) Client(p uset.Set) *meta.Client[D] {
	if j.Uni == nil {
		j.Uni = formula.NewUniverse(j.A.Theory())
	}
	if j.WPC == nil {
		j.WPC = meta.NewWPCache()
	}
	a := j.A
	return &meta.Client[D]{
		WP:    a.WP,
		U:     j.Uni,
		Eval:  func(l formula.Lit, d D) bool { return a.EvalLit(l, p, d) },
		K:     j.K,
		Cache: j.WPC,
	}
}

// FlushObs implements core.ObsFlusher: it reports the formula.* counters of
// the job's literal universe, the meta.* counters of its WP cache, and the
// delta counters of the incremental forward chain.
func (j *Job[D, Q, A]) FlushObs(rec obs.Recorder) {
	meta.FlushUniverseObs(rec, j.Uni)
	meta.FlushWPObs(rec, j.WPC)
	obs.FlushDelta(rec, &j.deltaResumes, &j.deltaReused, &j.deltaInvalid)
}

// Backward runs the meta-analysis over the counterexample trace and
// extracts the parameter cubes of abstractions guaranteed to fail. A budget
// trip mid-walk yields nil (a truncated condition is not sound).
func (j *Job[D, Q, A]) Backward(b *budget.Budget, p uset.Set, t lang.Trace) []core.ParamCube {
	dI := j.A.Initial()
	states := dataflow.StatesAlong(t, dI, j.A.Transfer(p))
	c := j.Client(p)
	c.Budget = b
	dnf := meta.Run(c, t, states, j.A.NotQ(j.Q))
	if b.Tripped() {
		return nil
	}
	return j.Cubes(dnf, dI)
}

// Cubes projects a failure-condition DNF onto parameter cubes: each
// disjunct whose state literals hold at dI describes the abstractions
// {p' | p' ⊇ Pos, p' ∩ Neg = ∅} that inevitably fail (line 14 of Alg 1). A
// parameter literal asking for its parameter on puts it in Pos, one asking
// for it off puts it in Neg.
func (j *Job[D, Q, A]) Cubes(dnf formula.DNF, dI D) []core.ParamCube {
	var out []core.ParamCube
	for _, conj := range dnf {
		var pos, neg uset.Set
		ok := true
		for _, l := range conj.Lits() {
			if id, on, isParam := j.A.ParamLit(l.P); isParam {
				if on != l.Neg {
					pos = pos.Add(id)
				} else {
					neg = neg.Add(id)
				}
				continue
			}
			// State literal: its truth at dI is independent of p'.
			if !j.A.EvalLit(l, nil, dI) {
				ok = false
				break
			}
		}
		if ok {
			out = append(out, core.ParamCube{Pos: pos, Neg: neg})
		}
	}
	return out
}
