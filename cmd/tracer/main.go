// Command tracer runs the optimum-abstraction search on a mini-IR program.
//
// It answers the program's explicit queries ("query name local(v)" and
// "query name state(v: s1 s2 ...)") and, with -auto, also the pervasively
// generated queries of the paper's evaluation (§6): a type-state query per
// call site, and a thread-escape and a null-dereference query per field
// access.
//
// Usage:
//
//	tracer [-k 5] [-timeout 5s] [-auto [-batch] [-batch-workers 4] [-warm-dir DIR]] [-property file] program.tir
//
// With -auto -batch the generated queries go through the grouped
// multi-query solver (§6): queries whose learned clause sets coincide share
// forward runs, and -batch-workers schedules independent groups in
// parallel. Results are identical for every worker count.
//
// With -warm-dir the generated queries are warm-started from a persistent
// clause store (internal/warm): a later invocation on the same — or a
// slightly edited — program seeds each query with the previously learned
// blocking clauses that survive the IR delta, and saves what it learns back.
//
// -batch, -batch-workers and -warm-dir apply to the generated queries only,
// so each is rejected without -auto; -batch-workers sizes the grouped
// solver's pool only, so it is also rejected without -batch.
//
// With -engine rhs the explicit queries are answered by the summary-based
// tabulation engine, which also handles recursive call graphs. It answers
// nothing else, so -auto, -batch, -warm-dir and -explain are rejected with
// it, as is any -engine value other than inline and rhs. -chaos-rate is
// rejected without a nonzero -chaos-seed, which it tunes.
//
// The -property flag selects the automaton for explicit type-state queries:
// "file" (open/close protocol) or "stress" (the paper's fictitious
// evaluation property).
//
// Observability (see internal/obs and ARCHITECTURE.md):
//
//	-trace events.ndjson   write the structured event stream of every CEGAR
//	                       iteration (iter_start, forward_done, backward_done,
//	                       clause_learned, query_resolved, and the failure
//	                       events budget_trip / panic_recovered) plus inline
//	                       counter/gauge/timing records, one JSON object per
//	                       line, tagged with the query name
//	-metrics               print the aggregated counters, gauges, and timers
//	                       after all queries resolve
//	-cpuprofile cpu.pprof  capture a pprof CPU profile of the whole run
//	-memprofile mem.pprof  write a pprof heap profile at exit
//
// Failure model (see ARCHITECTURE.md "Failure model & cancellation"):
//
//	SIGINT                 cancels the solve cooperatively: in-flight phases
//	                       abort at their next budget poll, unresolved
//	                       queries report UNRESOLVED, and the NDJSON trace is
//	                       flushed before exit
//	-chaos-seed N          enable deterministic fault injection: panics,
//	                       delays, and budget trips fire pseudo-randomly at
//	                       the solver's hook points, reproducibly in the seed
//	                       (0 disables; see internal/faultinject); solved one
//	                       at a time, each query draws its faults from the
//	                       seed and its name
//	-chaos-rate R          fraction of hook points that fire (default 0.05)
//
// Differential fuzzing (see "Ground truth & fuzzing" in ARCHITECTURE.md):
//
//	tracer -fuzz-n 10000 [-fuzz-seed 1] [-fuzz-meta]
//
// runs the brute-force oracle of internal/oracle on that many generated
// programs per client (type-state, thread-escape, and nullness) instead of
// analyzing a program file. Case i derives from seed+i, so every reported
// discrepancy replays in isolation; -fuzz-meta adds the metamorphic checks
// (parameter permutation, padding, batch worker/donor invariance). Exit
// status is nonzero iff a discrepancy survived shrinking. A fuzz run reads
// no other flag and no program, so it rejects both; without a positive
// -fuzz-n, -fuzz-seed and -fuzz-meta are rejected.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"slices"
	"sort"
	"time"

	"tracer/internal/core"
	"tracer/internal/driver"
	"tracer/internal/explain"
	"tracer/internal/faultinject"
	"tracer/internal/obs"
	"tracer/internal/oracle"
	"tracer/internal/typestate"
	"tracer/internal/warm"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "tracer:", err)
		os.Exit(1)
	}
}

func run() error {
	k := flag.Int("k", 5, "beam width k of the backward meta-analysis")
	timeout := flag.Duration("timeout", 5*time.Second, "per-query wall-clock budget")
	auto := flag.Bool("auto", false, "also answer pervasively generated queries (§6)")
	batch := flag.Bool("batch", false, "resolve -auto queries through the grouped multi-query solver (§6) instead of one at a time")
	batchWorkers := flag.Int("batch-workers", 1, "worker pool of the grouped solver; results are identical for every value")
	warmDir := flag.String("warm-dir", "", "persistent warm-start store for -auto queries (internal/warm): learned clauses are loaded at start and saved at exit, keyed by the program's IR fingerprint")
	engine := flag.String("engine", "inline", "forward engine: inline (context-sensitive inlining) or rhs (summary-based tabulation; supports recursion)")
	explainFlag := flag.Bool("explain", false, "narrate each CEGAR iteration (trace with α/ψ annotations, as in Figs 1 and 6)")
	property := flag.String("property", "file", "automaton for explicit type-state queries: file|stress")
	tracePath := flag.String("trace", "", "write NDJSON events of every CEGAR iteration to this file")
	metrics := flag.Bool("metrics", false, "print aggregated counters/gauges/timers after the run")
	cpuprofile := flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a pprof heap profile to this file at exit")
	chaosSeed := flag.Int64("chaos-seed", 0, "enable deterministic fault injection with this seed (0 = off)")
	chaosRate := flag.Float64("chaos-rate", 0.05, "fraction of hook points that fire under -chaos-seed")
	fuzzSeed := flag.Int64("fuzz-seed", 1, "base seed of the differential fuzzer; case i uses seed+i")
	fuzzN := flag.Int("fuzz-n", 0, "run the differential oracle on this many generated cases per client instead of analyzing a program (0 = off)")
	fuzzMeta := flag.Bool("fuzz-meta", false, "also run the metamorphic checks (permutation, padding, batch invariance) on every fuzz case")
	flag.Parse()

	cl := cliFlags{engine: *engine, auto: *auto, batch: *batch, explain: *explainFlag,
		warmDir: *warmDir, chaos: *chaosSeed != 0, fuzzN: *fuzzN,
		nargs: flag.NArg()}
	flag.Visit(func(f *flag.Flag) { cl.set = append(cl.set, f.Name) })
	if err := checkEngine(cl); err != nil {
		return err
	}
	if *fuzzN > 0 {
		return runFuzz(*fuzzSeed, *fuzzN, *fuzzMeta)
	}

	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: tracer [flags] program.tir")
		os.Exit(2)
	}
	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		return err
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "tracer:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "tracer:", err)
			}
		}()
	}

	var sinks []obs.Recorder
	if *tracePath != "" {
		nd, err := obs.CreateNDJSON(*tracePath)
		if err != nil {
			return err
		}
		defer func() {
			if err := nd.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "tracer:", err)
			}
		}()
		sinks = append(sinks, nd)
	}
	var agg *obs.Agg
	if *metrics {
		agg = obs.NewAgg()
		sinks = append(sinks, agg)
	}
	rec := obs.Multi(sinks...)
	// SIGINT cancels cooperatively: in-flight phases abort at their next
	// budget poll, partial results are printed, and the deferred NDJSON
	// close above still flushes the trace.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	opts := core.Options{MaxIters: 1000, Timeout: *timeout, Context: ctx}
	if *chaosSeed != 0 {
		opts.Inject = faultinject.Seeded(*chaosSeed, *chaosRate)
		fmt.Printf("[chaos: injecting faults at ~%.0f%% of hook points, seed %d]\n", *chaosRate*100, *chaosSeed)
	}

	var prop *typestate.Property
	switch *property {
	case "file":
		prop = typestate.FileProperty()
	case "stress":
		prop = typestate.StressProperty(nil)
	default:
		return fmt.Errorf("unknown -property %q", *property)
	}

	opts.Workers = *batchWorkers

	if *engine == "rhs" {
		if err := runRHS(string(src), prop, *k, opts, rec); err != nil {
			return err
		}
	} else {
		if err := runInline(string(src), prop, *k, opts, rec, *auto, *batch, *explainFlag, *warmDir); err != nil {
			return err
		}
	}

	if agg != nil {
		fmt.Print(agg.Render())
	}
	return nil
}

// cliFlags is what checkEngine reads of the command line.
type cliFlags struct {
	engine               string
	auto, batch, explain bool
	warmDir              string
	chaos                bool // -chaos-seed is nonzero
	fuzzN                int
	set                  []string // the flags given, in flag.Visit's order
	nargs                int      // program arguments
}

// checkEngine rejects every flag the run would ignore: with a positive
// -fuzz-n, every other flag but -fuzz-seed and -fuzz-meta, and a program
// argument, since a fuzz run analyzes generated cases only; without it,
// -fuzz-seed and -fuzz-meta; an -engine value other than inline and rhs;
// each flag the rhs engine does not implement (it answers the program's
// explicit query statements only, one at a time and cold); without -auto,
// the flags that apply to generated queries only; -batch-workers without
// -batch, since a one-query solve is sequential; and -chaos-rate without a
// nonzero -chaos-seed.
func checkEngine(cl cliFlags) error {
	type named struct {
		name string
		set  bool
	}
	given := func(name string) bool { return slices.Contains(cl.set, name) }
	if cl.fuzzN > 0 {
		for _, name := range cl.set {
			if name != "fuzz-n" && name != "fuzz-seed" && name != "fuzz-meta" {
				return fmt.Errorf("-fuzz-n runs the differential oracle on generated cases; it does not use -%s", name)
			}
		}
		if cl.nargs > 0 {
			return fmt.Errorf("-fuzz-n runs the differential oracle on generated cases; it takes no program")
		}
		return nil
	}
	for _, name := range []string{"fuzz-seed", "fuzz-meta"} {
		if given(name) {
			return fmt.Errorf("-%s applies to the differential oracle only; it needs a positive -fuzz-n", name)
		}
	}
	switch cl.engine {
	case "inline":
	case "rhs":
		for _, f := range []named{{"auto", cl.auto}, {"batch", cl.batch}, {"warm-dir", cl.warmDir != ""}, {"explain", cl.explain}} {
			if f.set {
				return fmt.Errorf("-engine rhs answers explicit query statements only; it does not support -%s", f.name)
			}
		}
	default:
		return fmt.Errorf("unknown -engine %q: want inline or rhs", cl.engine)
	}
	if !cl.auto {
		for _, f := range []named{{"batch", cl.batch}, {"batch-workers", given("batch-workers")}, {"warm-dir", cl.warmDir != ""}} {
			if f.set {
				return fmt.Errorf("-%s applies to generated queries only; it needs -auto", f.name)
			}
		}
	}
	if given("batch-workers") && !cl.batch {
		return fmt.Errorf("-batch-workers sizes the grouped solver's pool; it needs -batch")
	}
	if given("chaos-rate") && !cl.chaos {
		return fmt.Errorf("-chaos-rate tunes fault injection; it needs a nonzero -chaos-seed")
	}
	return nil
}

// runFuzz cross-checks the CEGAR loop against the brute-force oracle on
// seeded generated programs for every client, printing every discrepancy
// (already minimized by the deterministic shrinker) with its replay seed.
func runFuzz(seed int64, n int, meta bool) error {
	opts := oracle.FuzzOptions{Seed: seed, N: n, Meta: meta}
	var total int
	for _, f := range oracle.Fuzzers {
		start := time.Now()
		ds := f.Fuzz(opts)
		fmt.Printf("fuzz %-9s  %d cases, seed %d, meta=%v: %d discrepancies  [%v]\n",
			f.Client, n, seed, meta, len(ds), time.Since(start).Round(time.Millisecond))
		for _, d := range ds {
			fmt.Println(d)
		}
		total += len(ds)
	}
	if total > 0 {
		return fmt.Errorf("%d oracle discrepancies", total)
	}
	return nil
}

// runInline answers queries through the context-sensitive inlining engine.
func runInline(src string, prop *typestate.Property, k int, opts core.Options, rec obs.Recorder, auto, batch, explainFlag bool, warmDir string) error {
	prog, err := driver.Load(src)
	if err != nil {
		return err
	}

	// report solves one query through sess (nil solves cold) under its
	// position-independent key and prints the result.
	report := func(sess *warm.Session, name, key string, job core.Problem, paramName func(i int) string) error {
		qopts := opts
		qopts.Recorder = obs.Tag(rec, name)
		qopts.Inject = opts.Inject.Scope(name)
		start := time.Now()
		res, err := sess.Solve(key, job, qopts)
		if err != nil {
			return err
		}
		printResult(name, res, paramName, time.Since(start))
		return nil
	}

	// Explicit queries.
	tsJobs, err := prog.ExplicitTypestateJobs(prop, k)
	if err != nil {
		return err
	}
	for _, name := range sortedKeys(tsJobs) {
		job := tsJobs[name]
		if explainFlag {
			fmt.Printf("=== query %s ===\n", name)
			if _, err := explain.ForTypestate(job, os.Stdout).Solve(opts); err != nil {
				return err
			}
			fmt.Println()
			continue
		}
		if err := report(nil, "query "+name, "", job, job.ParamName); err != nil {
			return err
		}
	}
	escJobs := prog.ExplicitEscapeJobs(k)
	for _, name := range sortedKeys(escJobs) {
		job := escJobs[name]
		if explainFlag {
			fmt.Printf("=== query %s ===\n", name)
			if _, err := explain.ForEscape(job, os.Stdout).Solve(opts); err != nil {
				return err
			}
			fmt.Println()
			continue
		}
		if err := report(nil, "query "+name, "", job, job.ParamName); err != nil {
			return err
		}
	}

	if auto {
		stats := prog.ComputeStats(src)
		fmt.Printf("\nGenerated queries (N_ts=%d variables, N_esc=%d sites, N_null=%d cells):\n",
			stats.TypestateParams, stats.EscapeParams, stats.NullnessParams)
		// The warm store applies to the generated queries only: explicit
		// queries have no position-independent key.
		store := warm.Open(warmDir, rec)
		session := func(cl warm.Client) *warm.Session {
			if !store.Enabled() {
				return nil
			}
			return store.Session(prog, warm.Config{Client: cl, K: k, MaxIters: opts.MaxIters})
		}
		if batch {
			return runBatch(prog, k, opts, rec, session)
		}
		for _, spec := range driver.Clients() {
			sess := session(warm.Client(spec.Name))
			paramName := paramNamer(spec.ParamNames(prog))
			for i, q := range spec.Queries(prog) {
				if err := report(sess, q.ID, q.Key, spec.Job(prog, i, k), paramName); err != nil {
					return err
				}
			}
			if err := sess.Save(); err != nil {
				return err
			}
		}
	}
	return nil
}

// indices returns 0..n-1.
func indices(n int) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	return idx
}

// paramNamer names parameters from a client's parameter universe.
func paramNamer(names []string) func(i int) string {
	return func(i int) string { return names[i] }
}

// runBatch resolves the generated queries through the grouped multi-query
// solver of §6: queries with identical learned-clause sets share forward
// runs, and opts.Workers schedules independent groups in parallel.
func runBatch(prog *driver.Program, k int, opts core.Options, rec obs.Recorder, session func(warm.Client) *warm.Session) error {
	for _, spec := range driver.Clients() {
		queries := spec.Queries(prog)
		if len(queries) == 0 {
			continue
		}
		keys := make([]string, len(queries))
		for i, q := range queries {
			keys[i] = q.Key
		}
		sess := session(warm.Client(spec.Name))
		paramName := paramNamer(spec.ParamNames(prog))
		bopts := opts
		bopts.Recorder = rec
		if bopts.Timeout > 0 {
			bopts.Timeout *= time.Duration(len(queries)) // opts.Timeout is per query
		}
		start := time.Now()
		res, err := sess.SolveBatch(keys, spec.Batch(prog, indices(len(queries)), k), bopts)
		if err != nil {
			return err
		}
		wall := time.Since(start)
		for i, r := range res.Results {
			printResult(queries[i].ID, r, paramName, wall/time.Duration(len(res.Results)))
		}
		if err := sess.Save(); err != nil {
			return err
		}
		fmt.Printf("[batch: %d queries, %d forward runs (%d shared), %d groups, %d rounds, %v]\n",
			len(res.Results), res.Stats.ForwardRuns, res.Stats.FwdCacheHits,
			res.Stats.TotalGroups, res.Stats.Rounds, wall.Round(time.Millisecond))
	}
	return nil
}

// runRHS answers the program's explicit queries with the summary-based
// tabulation backend, which also handles recursive call graphs.
func runRHS(src string, prop *typestate.Property, k int, opts core.Options, rec obs.Recorder) error {
	p, err := driver.LoadRHS(src)
	if err != nil {
		return err
	}
	jobs, err := p.ExplicitJobs(prop, k)
	if err != nil {
		return err
	}
	names := make([]string, 0, len(jobs))
	for name := range jobs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		job := jobs[name]
		qopts := opts
		qopts.Recorder = obs.Tag(rec, "query "+name)
		qopts.Inject = opts.Inject.Scope("query " + name)
		paramName := func(i int) string { return fmt.Sprintf("p%d", i) }
		if j, ok := job.(interface {
			ParamName(i int) string
			Observe(rec obs.Recorder)
		}); ok {
			paramName = j.ParamName
			j.Observe(qopts.Recorder)
		}
		start := time.Now()
		res, err := core.Solve(job, qopts)
		if err != nil {
			return err
		}
		printResult("query "+name, res, paramName, time.Since(start))
	}
	return nil
}

// printResult renders one resolved query in the fixed-width report format.
func printResult(name string, res core.Result, paramName func(i int) string, wall time.Duration) {
	switch res.Status {
	case core.Proved:
		names := make([]string, 0, res.Abstraction.Len())
		for _, i := range res.Abstraction.Elems() {
			names = append(names, paramName(i))
		}
		fmt.Printf("%-40s PROVED    cheapest abstraction (|p|=%d): %v  [%d iterations, %v]\n",
			name, res.Abstraction.Len(), names, res.Iterations, wall.Round(time.Millisecond))
	case core.Impossible:
		fmt.Printf("%-40s IMPOSSIBLE  no abstraction in the family proves it  [%d iterations, %v]\n",
			name, res.Iterations, wall.Round(time.Millisecond))
	case core.Failed:
		fmt.Printf("%-40s FAILED      %s  [%d iterations]\n", name, res.Failure, res.Iterations)
	default:
		fmt.Printf("%-40s UNRESOLVED  budget exhausted after %d iterations\n", name, res.Iterations)
	}
}

func sortedKeys[V any](m map[string]*V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
