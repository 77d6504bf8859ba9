package minsat_test

import (
	"os"
	"testing"
	"time"

	"tracer/internal/bench"
	"tracer/internal/budget"
	"tracer/internal/core"
	"tracer/internal/driver"
	"tracer/internal/lang"
	"tracer/internal/minsat"
	"tracer/internal/uset"
)

// round is one CEGAR iteration of a solve, as core.Options.OnLearn reports
// it: the abstraction it picked and the cubes its backward pass blocked.
type round struct {
	p     uset.Set
	cubes []core.ParamCube
}

// learned solves one query and returns its result and its rounds.
func learned(t *testing.T, job core.Problem, maxIters int) (core.Result, []round) {
	t.Helper()
	var rounds []round
	opts := core.Options{MaxIters: maxIters,
		OnLearn: func(_ int, p uset.Set, _ lang.Trace, cubes []core.ParamCube) {
			rounds = append(rounds, round{p, cubes})
		}}
	res, err := core.Solve(job, opts)
	if err != nil {
		t.Fatal(err)
	}
	return res, rounds
}

// replay blocks each round's cubes into a fresh diagram solver and, when
// ref is non-nil, into the reference too. Before each round's cubes the
// diagram must pick that round's abstraction, agree with the reference,
// and stay under its node cap; after the last, its answer must agree with
// the solve's verdict. It returns the diagram's arena size and the wall
// each engine took.
func replay(t *testing.T, name string, n int, res core.Result, rounds []round, ref *minsat.Reference) (nodes int, diagramNS, refNS time.Duration) {
	t.Helper()
	d := minsat.New(n)
	minimum := func(r int) (uset.Set, bool) {
		b := budget.New(nil, time.Time{}, 0)
		start := time.Now()
		got, ok := d.MinimumBudget(b)
		diagramNS += time.Since(start)
		if b.Tripped() {
			t.Fatalf("%s call %d: the diagram tripped its budget (%v) at %d nodes",
				name, r, b.Cause(), minsat.DiagramNodes(d))
		}
		if ref != nil {
			start := time.Now()
			want, wantOK := ref.Minimum()
			refNS += time.Since(start)
			if ok != wantOK || !got.Equal(want) {
				t.Fatalf("%s call %d: diagram %v,%v; reference %v,%v", name, r, got, ok, want, wantOK)
			}
		}
		return got, ok
	}
	for r, rd := range rounds {
		if got, ok := minimum(r); !ok || !got.Equal(rd.p) {
			t.Fatalf("%s iteration %d: replay picks %v,%v; the solve picked %v", name, r+1, got, ok, rd.p)
		}
		for _, cube := range rd.cubes {
			d.Block(cube.Pos, cube.Neg)
			if ref != nil {
				ref.Block(cube.Pos, cube.Neg)
			}
		}
	}
	got, ok := minimum(len(rounds))
	switch res.Status {
	case core.Impossible:
		if ok {
			t.Fatalf("%s: impossible, but the replay finds %v", name, got)
		}
	case core.Proved:
		if !got.Equal(res.Abstraction) {
			t.Fatalf("%s: proved by %v, but the replay picks %v", name, res.Abstraction, got)
		}
	}
	return minsat.DiagramNodes(d), diagramNS, refNS
}

// TestReplayMatchesReference solves every suite query as the benchmark does
// (k = 5, MaxIters 100), records the cubes each iteration blocks through
// core.Options.OnLearn, and replays them into a fresh diagram solver and a
// fresh reference solver. Before each iteration's cubes, both must return
// the abstraction that iteration picked; after the last, both must agree
// with the query's verdict. No call may trip the diagram's cap. Tier 1 runs
// it on tsp; MINSAT_REPLAY_SUITE=all runs it on all seven programs (make
// fuzz) and then re-solves every query that ended Exhausted at MaxIters
// 5000. Each must end Impossible with no budget trip, and the replay of its
// cubes must stay under the cap. These long replays read no reference: on
// avrora's C9.svc33 queries a branch-and-bound search takes hours.
func TestReplayMatchesReference(t *testing.T) {
	progs := bench.Suite()[:1] // tsp
	all := os.Getenv("MINSAT_REPLAY_SUITE") == "all"
	if all {
		progs = bench.Suite()
	}
	const k = 5
	// exhausted holds the name and job of every query that ends Exhausted.
	type hard struct {
		name string
		job  func() core.Problem
	}
	var exhausted []hard
	var queries, maxNodes int
	var maxName string
	var diagramNS, refNS time.Duration
	for _, c := range progs {
		b := bench.MustLoad(c)
		for _, spec := range driver.Clients() {
			for i, q := range spec.Queries(b.Prog) {
				job := spec.Job(b.Prog, i, k)
				res, rounds := learned(t, job, 100)
				queries++
				name := c.Name + " " + q.ID
				n, dNS, rNS := replay(t, name, job.NumParams(), res, rounds, minsat.NewReference(job.NumParams()))
				diagramNS += dNS
				refNS += rNS
				if n > maxNodes {
					maxNodes, maxName = n, name
				}
				if res.Status == core.Exhausted {
					exhausted = append(exhausted, hard{name, func() core.Problem { return spec.Job(b.Prog, i, k) }})
				}
			}
		}
	}
	t.Logf("%d queries (%d exhausted), no cap trip; largest diagram %d nodes (%s); diagram %v, reference %v",
		queries, len(exhausted), maxNodes, maxName, diagramNS.Round(time.Millisecond), refNS.Round(time.Millisecond))
	if !all {
		return
	}
	const longIters = 5000
	for _, h := range exhausted {
		job := h.job()
		start := time.Now()
		res, rounds := learned(t, job, longIters)
		wall := time.Since(start)
		if res.Status != core.Impossible || res.Tripped {
			t.Fatalf("%s at MaxIters %d: %v (tripped %v) after %d iterations; want impossible",
				h.name, longIters, res.Status, res.Tripped, res.Iterations)
		}
		nodes, _, _ := replay(t, h.name, job.NumParams(), res, rounds, nil)
		t.Logf("%s at MaxIters %d: impossible after %d iterations in %v; largest diagram %d nodes",
			h.name, longIters, res.Iterations, wall.Round(time.Millisecond), nodes)
	}
}
