// Package oracle is the differential testing harness for the TRACER loop:
// a brute-force ground-truth engine plus a seeded metamorphic fuzzer that
// cross-check core.Solve and core.SolveBatch on randomly generated small
// programs for every registered client (see Fuzzers).
//
// The oracle enumerates all 2^n abstractions of a problem (n ≤ ~14), runs
// the forward analysis under each, and checks three properties of TRACER's
// answer against that ground truth:
//
//  1. Minimality — a Proved result's cost equals the true minimum proving
//     cost (and the returned abstraction really proves).
//  2. Impossibility — Impossible is returned iff no abstraction in the
//     family proves the query.
//  3. Cube soundness — every learned ParamCube contains only abstractions
//     whose forward run actually fails, and each backward pass's cube set
//     covers the abstraction that produced it (the progress guarantee,
//     Theorem 3 clause 1).
//
// On top sit metamorphic checks (parameter permutation invariance, monotone
// padding, batch worker-count and donor invariance) and a fuzz
// driver that minimizes every failing program with the deterministic
// shrinker of internal/oracle/gen before reporting. See the "Ground truth &
// fuzzing" section of ARCHITECTURE.md.
package oracle

import (
	"fmt"
	"math/bits"

	"tracer/internal/budget"
	"tracer/internal/core"
	"tracer/internal/lang"
	"tracer/internal/uset"
)

// MaxParams caps brute-force enumeration; 2^14 forward runs is the most the
// oracle is willing to pay for one problem.
const MaxParams = 14

// Truth is the brute-force ground truth for one problem: for every
// abstraction (indexed by its parameter bitmask), whether the forward
// analysis proves the query under it.
type Truth struct {
	N      int
	Proves []bool
}

// Enumerate runs the forward analysis under every abstraction of the
// family. It panics when the family is larger than 2^MaxParams — the oracle
// is for small generated problems, not real benchmarks.
func Enumerate(pr core.Problem) Truth {
	n := pr.NumParams()
	if n > MaxParams {
		panic(fmt.Sprintf("oracle: %d parameters exceed the brute-force cap of %d", n, MaxParams))
	}
	t := Truth{N: n, Proves: make([]bool, 1<<n)}
	for mask := range t.Proves {
		t.Proves[mask] = pr.Forward(nil, setOf(mask)).Proved
	}
	return t
}

// setOf converts a parameter bitmask to its abstraction set.
func setOf(mask int) uset.Set {
	var p uset.Set
	for i := 0; mask>>i != 0; i++ {
		if mask&(1<<i) != 0 {
			p = p.Add(i)
		}
	}
	return p
}

// maskOf converts an abstraction set to its parameter bitmask.
func maskOf(p uset.Set) int {
	mask := 0
	for _, i := range p.Elems() {
		mask |= 1 << i
	}
	return mask
}

// ProvesSet reports the ground truth for one abstraction.
func (t Truth) ProvesSet(p uset.Set) bool { return t.Proves[maskOf(p)] }

// Possible reports whether any abstraction proves the query.
func (t Truth) Possible() bool {
	for _, ok := range t.Proves {
		if ok {
			return true
		}
	}
	return false
}

// MinCost returns the minimum |p| over proving abstractions, or -1 when the
// query is impossible.
func (t Truth) MinCost() int {
	min := -1
	for mask, ok := range t.Proves {
		if !ok {
			continue
		}
		if c := bits.OnesCount(uint(mask)); min < 0 || c < min {
			min = c
		}
	}
	return min
}

// pass records one backward call intercepted by the audit wrapper.
type pass struct {
	p     uset.Set
	cubes []core.ParamCube
}

// audited wraps a Problem so every backward pass is retained for
// cube-soundness checking. core.Solve is sequential, so no locking.
type audited struct {
	core.Problem
	passes []pass
}

func (a *audited) Backward(b *budget.Budget, p uset.Set, t lang.Trace) []core.ParamCube {
	cubes := a.Problem.Backward(b, p, t)
	a.passes = append(a.passes, pass{p: p, cubes: cubes})
	return cubes
}

// CheckSolve runs core.Solve on a fresh problem from mk and verifies the
// three oracle properties against a ground truth enumerated on a second
// fresh instance. It returns one human-readable violation per failed check
// (empty means the solver agrees with brute force). opts should leave
// Recorder unset; budgeted options would make Exhausted legitimate.
func CheckSolve(mk func() core.Problem, opts core.Options) []string {
	truth := Enumerate(mk())
	au := &audited{Problem: mk()}
	res, err := core.Solve(au, opts)

	var v []string
	switch res.Status {
	case core.Proved:
		if !truth.Possible() {
			v = append(v, fmt.Sprintf("solver proved with p=%s but no abstraction proves", res.Abstraction))
		} else {
			if !truth.ProvesSet(res.Abstraction) {
				v = append(v, fmt.Sprintf("claimed proving abstraction p=%s does not prove under brute force", res.Abstraction))
			}
			if min := truth.MinCost(); res.Abstraction.Len() != min {
				v = append(v, fmt.Sprintf("proved at cost %d, true minimum is %d", res.Abstraction.Len(), min))
			}
		}
	case core.Impossible:
		if truth.Possible() {
			v = append(v, fmt.Sprintf("solver returned impossible but an abstraction of cost %d proves", truth.MinCost()))
		}
	default:
		// Unbudgeted solves of 2^n ≤ 2^14 families must terminate in at
		// most 2^n iterations; anything else is a loop defect.
		v = append(v, fmt.Sprintf("solver did not resolve: status=%s failure=%q err=%v", res.Status, res.Failure, err))
	}
	v = append(v, checkCubes(truth, au.passes)...)
	return v
}

// checkCubes verifies cube soundness and the progress guarantee for every
// recorded backward pass.
func checkCubes(truth Truth, passes []pass) []string {
	var v []string
	for i, ps := range passes {
		covered := false
		for _, c := range ps.cubes {
			if c.Broken() {
				v = append(v, fmt.Sprintf("backward pass %d (p=%s): contradictory cube %s", i+1, ps.p, c))
				continue
			}
			if c.Contains(ps.p) {
				covered = true
			}
			for mask, proves := range truth.Proves {
				if proves && c.Contains(setOf(mask)) {
					v = append(v, fmt.Sprintf("backward pass %d (p=%s): cube %s contains proving abstraction %s",
						i+1, ps.p, c, setOf(mask)))
					break // one witness per cube is enough
				}
			}
		}
		if !covered {
			v = append(v, fmt.Sprintf("backward pass %d: cube set %s does not cover its own abstraction p=%s",
				i+1, renderCubes(ps.cubes), ps.p))
		}
	}
	return v
}

func renderCubes(cs []core.ParamCube) string {
	if len(cs) == 0 {
		return "[]"
	}
	s := "["
	for i, c := range cs {
		if i > 0 {
			s += "; "
		}
		s += c.String()
	}
	return s + "]"
}
