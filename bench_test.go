package tracer

// Benchmarks regenerating the paper's evaluation (§6): Table 1, Figure 13's
// k grid, and one suite run with the tables built from it; plus ablations
// for the design choices DESIGN.md calls out. Each testing.B iteration
// recomputes its experiment from scratch on a scaled-down query budget so
// that `go test -bench=.` finishes in minutes; `go run ./cmd/paperbench`
// runs the full-budget versions and prints the complete tables.

import (
	"fmt"
	"testing"

	"tracer/internal/bench"
	"tracer/internal/budget"
	"tracer/internal/core"
	"tracer/internal/dataflow"
	"tracer/internal/driver"
	"tracer/internal/escape"
	"tracer/internal/formula"
	"tracer/internal/lang"
	"tracer/internal/meta"
	"tracer/internal/minsat"
	"tracer/internal/uset"
)

// escapePrimFor adapts the thread-escape theory for the formula
// micro-benchmark below.
func escapePrimFor(_ *escape.Analysis, st lang.Store) formula.Prim {
	return escape.PField{F: st.F, O: escape.N}
}

// benchOpts is the scaled-down budget used inside testing.B loops.
func benchOpts() bench.RunOptions {
	return bench.RunOptions{K: 5, MaxIters: 100, MaxQueries: 24}
}

// BenchmarkTable1 regenerates the benchmark-statistics table.
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := bench.Table1()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + bench.RenderTable1(rows))
		}
	}
}

// BenchmarkFigure13 regenerates the k-sweep (k ∈ {1,5,10}) of the
// thread-escape client on the smallest four benchmarks.
func BenchmarkFigure13(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := bench.Figure13(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + bench.RenderFigure13(rows))
		}
	}
}

// BenchmarkSuiteTables runs the suite once, every client on every program,
// and builds the tables that are functions of that run: the precision
// figure (Fig 12), scalability (Table 2), cheapest-abstraction size and
// reuse (Tables 3 and 4) and the thread-escape size histogram of the
// largest three benchmarks (Fig 14).
func BenchmarkSuiteTables(b *testing.B) {
	for i := 0; i < b.N; i++ {
		runs, err := bench.RunSuite(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + bench.RenderFigure12(bench.Figure12(runs)) +
				"\n" + bench.RenderTable2(bench.Table2(runs)) +
				"\n" + bench.RenderTable3(bench.Table3(runs)) +
				"\n" + bench.RenderTable4(bench.Table4(runs)) +
				"\n" + bench.RenderFigure14(bench.Figure14(runs)))
		}
	}
}

// ---------- ablations ----------

// BenchmarkAblationGrouping compares resolving the type-state queries of
// one benchmark individually vs through the §6 query-grouping batch driver.
func BenchmarkAblationGrouping(b *testing.B) {
	bm := bench.MustLoad(bench.Suite()[1]) // elevator
	opts := benchOpts()
	b.Run("individual", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := bench.Run(bm, bench.Typestate, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("grouped", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := bench.RunBatch(bm, bench.Typestate, opts)
			if err != nil {
				b.Fatal(err)
			}
			if i == 0 {
				b.ReportMetric(float64(res.Stats.ForwardRuns), "forward-runs")
				b.ReportMetric(float64(res.Stats.TotalGroups), "groups")
			}
		}
	})
}

// BenchmarkAblationUnderApprox measures the backward meta-analysis with and
// without under-approximation on one failing run, reporting the formula
// blow-up that §6 attributes to disabling it.
func BenchmarkAblationUnderApprox(b *testing.B) {
	bm := bench.MustLoad(bench.Suite()[3]) // weblech
	queries := bm.Prog.EscapeQueries()
	if len(queries) == 0 {
		b.Fatal("no queries")
	}
	// Pick the failing query with the longest counterexample trace so the
	// backward pass has room to blow up.
	esc := driver.ClientByName("escape")
	best, bestLen := -1, 0
	for i := range queries {
		out := esc.Job(bm.Prog, i, 5).Forward(nil, nil)
		if !out.Proved && len(out.Trace) > bestLen {
			best, bestLen = i, len(out.Trace)
		}
	}
	if best < 0 {
		b.Skip("all queries proven under the empty abstraction")
	}
	for _, cfg := range []struct {
		name string
		k    int
	}{{"k=1", 1}, {"k=5", 5}, {"off", 0}} {
		b.Run(cfg.name, func(b *testing.B) {
			job := esc.Job(bm.Prog, best, cfg.k).(*escape.Job)
			out := job.Forward(nil, nil)
			// The un-approximated backward pass blows up doubly
			// exponentially on full traces (the paper reports timeouts on
			// every query of even the smallest benchmark), so all variants
			// analyze the same bounded suffix of the counterexample. Even
			// there the formula-size metric shows the gap.
			trace := out.Trace
			const suffix = 40
			if len(trace) > suffix {
				trace = trace[len(trace)-suffix:]
			}
			dI := job.A.Initial()
			full := dataflow.StatesAlong(out.Trace, dI, dataflow.At(job.A.Step, nil))
			states := full[len(full)-len(trace)-1:]
			post := job.A.NotQ(job.Q)
			b.ResetTimer()
			maxSize := 0
			for i := 0; i < b.N; i++ {
				ann := meta.RunAnnotated(job.Client(nil), trace, states, post)
				for _, f := range ann {
					if f.Size() > maxSize {
						maxSize = f.Size()
					}
				}
			}
			b.ReportMetric(float64(maxSize), "max-formula-size")
		})
	}
}

// BenchmarkForwardTypestate measures one cold forward type-state solve over
// the largest benchmark's inlined CFG (the job's NoDelta executor, so no
// iteration returns a retained run).
func BenchmarkForwardTypestate(b *testing.B) {
	bm := bench.MustLoad(bench.Suite()[5]) // avrora
	job := driver.ClientByName("typestate").Batch(bm.Prog, []int{0}, 5).Job(0, true)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		job.Forward(nil, nil)
	}
}

// BenchmarkForwardEscape measures one cold forward thread-escape solve
// (under the empty abstraction, every site mapped to E).
func BenchmarkForwardEscape(b *testing.B) {
	bm := bench.MustLoad(bench.Suite()[5]) // avrora
	job := driver.ClientByName("escape").Batch(bm.Prog, []int{0}, 5).Job(0, true)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		job.Forward(nil, nil)
	}
}

// forwardLog records the abstraction of every forward run of a problem.
type forwardLog struct {
	core.Problem
	ps []uset.Set
}

func (l *forwardLog) Forward(b *budget.Budget, p uset.Set) core.Outcome {
	l.ps = append(l.ps, p)
	return l.Problem.Forward(b, p)
}

// BenchmarkForwardChain measures the forward path of a per-query solve: each
// iteration replays, through job.Forward on one fresh job and so on one
// retained chain, the abstraction sequence that a recorded solve of the
// query ran. The query is the client's one with the most forward runs among
// its first 16 on the largest benchmark.
func BenchmarkForwardChain(b *testing.B) {
	bm := bench.MustLoad(bench.Suite()[5]) // avrora
	opts := core.Options{MaxIters: 100, MaxSteps: 2_000_000}
	for _, spec := range driver.Clients() {
		var seq []uset.Set
		best := 0
		for i := range min(16, len(spec.Queries(bm.Prog))) {
			log := &forwardLog{Problem: spec.Job(bm.Prog, i, 5)}
			if _, err := core.Solve(log, opts); err != nil {
				b.Fatal(err)
			}
			if len(log.ps) > len(seq) {
				seq, best = log.ps, i
			}
		}
		b.Run(spec.Name, func(b *testing.B) {
			b.ReportMetric(float64(len(seq)), "runs")
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				job := spec.Job(bm.Prog, best, 5)
				b.StartTimer()
				for _, p := range seq {
					job.Forward(nil, p)
				}
			}
		})
	}
}

// backwardLog records the abstraction and counterexample trace of every
// backward pass of a problem.
type backwardLog struct {
	core.Problem
	walks []backwardWalk
}

type backwardWalk struct {
	p uset.Set
	t lang.Trace
}

func (l *backwardLog) Backward(b *budget.Budget, p uset.Set, t lang.Trace) []core.ParamCube {
	l.walks = append(l.walks, backwardWalk{p, t})
	return l.Problem.Backward(b, p, t)
}

// BenchmarkBackwardChain measures the backward path of a per-query solve:
// each iteration replays, through Backward on one fresh job that shares the
// program's warm caches, the (abstraction, trace) pairs that a recorded
// solve of the query walked. The query is the client's one with the most
// backward passes among its first 16 on the largest benchmark.
func BenchmarkBackwardChain(b *testing.B) {
	bm := bench.MustLoad(bench.Suite()[5]) // avrora
	opts := core.Options{MaxIters: 100, MaxSteps: 2_000_000}
	for _, spec := range driver.Clients() {
		var walks []backwardWalk
		best := 0
		for i := range min(16, len(spec.Queries(bm.Prog))) {
			log := &backwardLog{Problem: spec.Job(bm.Prog, i, 5)}
			if _, err := core.Solve(log, opts); err != nil {
				b.Fatal(err)
			}
			if len(log.walks) > len(walks) {
				walks, best = log.walks, i
			}
		}
		b.Run(spec.Name, func(b *testing.B) {
			job := spec.Job(bm.Prog, best, 5)
			b.ReportAllocs()
			b.ResetTimer()
			b.ReportMetric(float64(len(walks)), "walks")
			for i := 0; i < b.N; i++ {
				for _, w := range walks {
					job.Backward(nil, w.p, w.t)
				}
			}
		})
	}
}

// BenchmarkEngines compares the two interprocedural backends — the inlined
// supergraph with the intraprocedural solver vs. the RHS tabulation — on
// one cold forward thread-escape solve of the same query of one Program.
func BenchmarkEngines(b *testing.B) {
	bm := bench.MustLoad(bench.Suite()[2]) // hedc
	esc := driver.ClientByName("escape")
	for _, e := range []struct {
		name string
		job  core.Problem
	}{
		{"inline", esc.Batch(bm.Prog, []int{0}, 5).Job(0, true)},
		{"rhs", esc.RHSJob(bm.Prog, 0, 5, true)},
	} {
		b.Run(e.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				e.job.Forward(nil, nil)
			}
		})
	}
}

// BenchmarkMinSAT measures the abstraction chooser on a clause set shaped
// like a long TRACER run: a chain forcing variables on one by one. Each
// iteration loads the clauses into a fresh solver, so it times a search
// (clause insertion included) rather than the warm reuse of an unchanged
// clause set.
func BenchmarkMinSAT(b *testing.B) {
	const n = 60
	var cs []minsat.Clause
	for i := 0; i < n-1; i++ {
		// ¬(x_i off): each clause requires x_i, emulating learned cubes.
		cs = append(cs, minsat.BlockingClause(nil, uset.New(i)))
		// ¬(x_i on ∧ x_{i+1} off).
		cs = append(cs, minsat.BlockingClause(uset.New(i), uset.New(i+1)))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := minsat.New(n)
		s.SeedClauses(cs)
		if _, ok := s.Minimum(); !ok {
			b.Fatal("unexpectedly unsat")
		}
	}
}

// BenchmarkFormulaToDNF measures DNF conversion of a store weakest
// precondition, the largest single formula in either theory.
func BenchmarkFormulaToDNF(b *testing.B) {
	bm := bench.MustLoad(bench.Suite()[0])
	a := escape.New(bm.Prog.Locals, bm.Prog.Fields, bm.Prog.Sites)
	var store lang.Atom
	for _, e := range bm.Prog.Inl.G.Edges {
		if s, ok := e.A.(lang.Store); ok {
			store = s
			break
		}
	}
	if store == nil {
		b.Skip("no store in benchmark")
	}
	st := store.(lang.Store)
	prim := escapePrimFor(a, st)
	u := formula.NewUniverse(escape.Theory{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := a.WP(store, prim)
		formula.ToDNF(f, u)
	}
}

// BenchmarkLowering measures parsing + points-to + inlining of the largest
// benchmark.
func BenchmarkLowering(b *testing.B) {
	cfg := bench.Suite()[5]
	src := bench.Generate(cfg)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := driver.Load(src); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSingleQuery measures one full TRACER resolution end to end.
func BenchmarkSingleQuery(b *testing.B) {
	bm := bench.MustLoad(bench.Suite()[2]) // hedc
	ts := driver.ClientByName("typestate")
	n := len(bm.Prog.TypestateQueries())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		job := ts.Job(bm.Prog, i%n, 5)
		if _, err := core.Solve(job, core.Options{MaxIters: 100, MaxSteps: 2_000_000}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSolveBatch measures the grouped multi-query solver across worker
// counts. The scheduler's results are identical for every worker count (see
// TestSolveBatchWorkerDeterminism); only wall time may differ, so the
// speedup at Workers=4 over Workers=1 is the parallelism win on the host.
// Forward runs and the group iterations that shared a run of their round
// are reported from the first iteration.
func BenchmarkSolveBatch(b *testing.B) {
	cases := []struct {
		idx    int
		client bench.Client
	}{
		{0, bench.Escape},    // tsp
		{0, bench.Typestate}, // tsp
		{3, bench.Typestate}, // weblech
	}
	for _, tc := range cases {
		bm := bench.MustLoad(bench.Suite()[tc.idx])
		for _, workers := range []int{1, 2, 4} {
			b.Run(fmt.Sprintf("%s/%s/workers=%d", bm.Config.Name, tc.client, workers), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					opts := benchOpts()
					opts.BatchWorkers = workers
					res, err := bench.RunBatch(bm, tc.client, opts)
					if err != nil {
						b.Fatal(err)
					}
					if i == 0 {
						b.ReportMetric(float64(res.Stats.ForwardRuns), "forward-runs")
						b.ReportMetric(float64(res.Stats.FwdCacheHits), "shared-runs")
					}
				}
			})
		}
	}
}
