package minsat_test

import (
	"os"
	"testing"
	"time"

	"tracer/internal/bench"
	"tracer/internal/core"
	"tracer/internal/driver"
	"tracer/internal/lang"
	"tracer/internal/minsat"
	"tracer/internal/uset"
)

// TestReplayMatchesSearch solves every suite query as the benchmark does (k
// = 5, MaxIters 100), records the cubes each iteration blocks through
// core.Options.OnLearn, and replays them into a fresh diagram solver and a
// fresh search-only solver. Before each iteration's cubes, both must return
// the abstraction that iteration picked; after the last, both must agree
// with the query's verdict. No diagram may fall back. Tier 1 runs it on tsp;
// MINSAT_REPLAY_SUITE=all runs it on all seven programs (make fuzz).
func TestReplayMatchesSearch(t *testing.T) {
	progs := bench.Suite()[:1] // tsp
	if os.Getenv("MINSAT_REPLAY_SUITE") == "all" {
		progs = bench.Suite()
	}
	type round struct {
		p     uset.Set
		cubes []core.ParamCube
	}
	const k = 5
	var queries, calls, maxNodes int
	var maxName string
	var diagramNS, searchNS time.Duration
	for _, c := range progs {
		b := bench.MustLoad(c)
		for _, spec := range driver.Clients() {
			for i, q := range spec.Queries(b.Prog) {
				var rounds []round
				opts := core.Options{MaxIters: 100,
					OnLearn: func(_ int, p uset.Set, _ lang.Trace, cubes []core.ParamCube) {
						rounds = append(rounds, round{p, cubes})
					}}
				job := spec.Job(b.Prog, i, k)
				res, err := core.Solve(job, opts)
				if err != nil {
					t.Fatalf("%s %s: %v", c.Name, q.ID, err)
				}
				queries++
				d, s := minsat.New(job.NumParams()), minsat.NewSearch(job.NumParams())
				minimum := func(r int) (uset.Set, bool) {
					calls++
					start := time.Now()
					got, ok := d.Minimum()
					mid := time.Now()
					want, wantOK := s.Minimum()
					diagramNS += mid.Sub(start)
					searchNS += time.Since(mid)
					if ok != wantOK || !got.Equal(want) {
						t.Fatalf("%s %s call %d: diagram %v,%v; search %v,%v",
							c.Name, q.ID, r, got, ok, want, wantOK)
					}
					return got, ok
				}
				for r, rd := range rounds {
					if got, ok := minimum(r); !ok || !got.Equal(rd.p) {
						t.Fatalf("%s %s iteration %d: replay picks %v,%v; the solve picked %v",
							c.Name, q.ID, r+1, got, ok, rd.p)
					}
					for _, cube := range rd.cubes {
						d.Block(cube.Pos, cube.Neg)
						s.Block(cube.Pos, cube.Neg)
					}
				}
				got, ok := minimum(len(rounds))
				switch res.Status {
				case core.Impossible:
					if ok {
						t.Fatalf("%s %s: impossible, but the replay finds %v", c.Name, q.ID, got)
					}
				case core.Proved:
					if !got.Equal(res.Abstraction) {
						t.Fatalf("%s %s: proved by %v, but the replay picks %v",
							c.Name, q.ID, res.Abstraction, got)
					}
				}
				if minsat.FellBack(d) {
					t.Fatalf("%s %s: the diagram fell back", c.Name, q.ID)
				}
				if n := minsat.DiagramNodes(d); n > maxNodes {
					maxNodes, maxName = n, c.Name+" "+q.ID
				}
			}
		}
	}
	t.Logf("%d queries, %d Minimum calls, no fallback; largest diagram %d nodes (%s); diagram %v, search %v",
		queries, calls, maxNodes, maxName, diagramNS.Round(time.Millisecond), searchNS.Round(time.Millisecond))
}
