// Command paperbench regenerates every table and figure of the paper's
// evaluation (§6) on the synthetic benchmark suite.
//
// Usage:
//
//	paperbench [-k 5] [-iters 100] [-only table1,fig12,...]
//
// The -k and -iters defaults are bench.DefaultRunOptions, cmd/tracerbench's
// settings; every query also runs under tracerbench's constant quota of
// 2,000,000 solver steps and no wall-clock budget, so every count it prints
// is the same on every host. Figure 12, Tables 2–4 and Figure 14 are
// functions of one suite run (every client on every program) and print
// first, in that order, after Table 1; Figure 13 runs its own k grid and
// prints last. Without -only it runs everything. -warm-dir warm-starts the
// runs from a persistent clause store (internal/warm). An unknown -only
// name is an error, and so is a flag that no selected section reads: every
// solving flag with Table 1 alone, and -k without a suite-run table.
//
// The walls it prints are single-shot; the repository's performance record
// is cmd/tracerbench.
//
// Observability (see internal/obs and ARCHITECTURE.md):
//
//	-trace events.ndjson   write the per-query structured event stream
//	-metrics               print the counters/gauges/timers of each solving
//	                       phase (the suite run, then Figure 13's k grid)
//	                       after the output that phase produced
//	-cpuprofile cpu.pprof  capture a pprof CPU profile of the whole run
//	-memprofile mem.pprof  write a pprof heap profile at exit
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"slices"
	"strings"
	"time"

	"tracer/internal/bench"
	"tracer/internal/obs"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "paperbench:", err)
		os.Exit(1)
	}
}

func run() error {
	def := bench.DefaultRunOptions()
	k := flag.Int("k", def.K, "beam width k of the backward meta-analysis")
	iters := flag.Int("iters", def.MaxIters, "per-query CEGAR iteration cap")
	workers := flag.Int("workers", 1, "concurrent query resolutions (0/1 = sequential)")
	only := flag.String("only", "", "comma-separated subset: "+strings.Join(sections, ","))
	warmDir := flag.String("warm-dir", "", "warm-start store directory for the table/figure runs (\"\" = cold)")
	tracePath := flag.String("trace", "", "write NDJSON events of every CEGAR iteration to this file")
	metrics := flag.Bool("metrics", false, "print each solving phase's aggregated counters/gauges/timers after its output")
	cpuprofile := flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a pprof heap profile to this file at exit")
	flag.Parse()
	given := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { given[f.Name] = true })
	want, err := checkSections(*only, given)
	if err != nil {
		return err
	}

	// paperbench is a batch tool over an almost entirely transient heap: the
	// solver allocates short-lived DNF cubes and worklist entries at a high
	// rate while live data (intern tables, caches) stays small. The default
	// GOGC=100 therefore re-collects a tiny live set constantly and, on the
	// single-core CI runners, every collection steals directly from the
	// mutator. Trading memory headroom for throughput is the right call for a
	// benchmark regenerator; an explicit GOGC still wins (SetGCPercent is a
	// no-op when the variable is set).
	if os.Getenv("GOGC") == "" {
		debug.SetGCPercent(400)
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
				fmt.Fprintln(os.Stderr, "paperbench:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "paperbench:", err)
			}
		}()
	}

	var trace obs.Recorder
	if *tracePath != "" {
		nd, err := obs.CreateNDJSON(*tracePath)
		if err != nil {
			return err
		}
		defer func() {
			if err := nd.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "paperbench:", err)
			}
		}()
		trace = nd
	}

	// SIGINT cancels the in-flight phase cooperatively; the phases after it
	// are skipped, so the NDJSON trace and the metrics of the completed ones
	// are still written.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	opts := bench.RunOptions{K: *k, MaxIters: *iters, Workers: *workers, Context: ctx, WarmDir: *warmDir}
	if want["table1"] {
		rows, err := bench.Table1()
		if err != nil {
			return fmt.Errorf("table1: %w", err)
		}
		fmt.Println(bench.RenderTable1(rows))
	}

	// Each solving phase records into the trace and, under -metrics, into an
	// Agg of its own, printed after the phase's output.
	phase := func(name, settings string, solve func(bench.RunOptions) error) error {
		if ctx.Err() != nil {
			fmt.Printf("[interrupted: skipping %s]\n\n", name)
			return nil
		}
		var agg *obs.Agg
		o := opts
		if *metrics {
			agg = obs.NewAgg()
			o.Recorder = obs.Multi(trace, agg)
		} else {
			o.Recorder = trace
		}
		start := time.Now()
		if err := solve(o); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		fmt.Printf("[%s in %v with %s]\n\n", name, time.Since(start).Round(time.Millisecond), settings)
		if agg != nil {
			fmt.Printf("[metrics: %s]\n%s\n", name, agg.Render())
		}
		return nil
	}

	type table struct {
		name   string
		render func([]*bench.ClientResult) string
	}
	tables := []table{
		{"fig12", func(runs []*bench.ClientResult) string { return bench.RenderFigure12(bench.Figure12(runs)) }},
		{"table2", func(runs []*bench.ClientResult) string { return bench.RenderTable2(bench.Table2(runs)) }},
		{"table3", func(runs []*bench.ClientResult) string { return bench.RenderTable3(bench.Table3(runs)) }},
		{"table4", func(runs []*bench.ClientResult) string { return bench.RenderTable4(bench.Table4(runs)) }},
		{"fig14", func(runs []*bench.ClientResult) string { return bench.RenderFigure14(bench.Figure14(runs)) }},
	}
	var picked []table
	for _, t := range tables {
		if want[t.name] {
			picked = append(picked, t)
		}
	}
	if len(picked) > 0 {
		err := phase("suite run", fmt.Sprintf("k=%d, iters=%d", *k, *iters), func(o bench.RunOptions) error {
			runs, err := bench.RunSuite(o)
			if err != nil {
				return err
			}
			for _, t := range picked {
				fmt.Println(t.render(runs))
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	if want["fig13"] {
		err := phase("fig13", fmt.Sprintf("iters=%d", *iters), func(o bench.RunOptions) error {
			rows, err := bench.Figure13(o)
			if err != nil {
				return err
			}
			fmt.Println(bench.RenderFigure13(rows))
			return nil
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// sections are the -only names, in print order.
var sections = []string{"table1", "fig12", "table2", "table3", "table4", "fig14", "fig13"}

// checkSections returns the sections -only selects, every one when it names
// none (empty elements are skipped), and rejects what the run would ignore:
// an unknown name; a solving flag when the only section selected is Table 1,
// which solves nothing; and -k unless a suite-run table is selected, since
// Figure 13 sets k itself. given holds the flags set on the command line.
func checkSections(only string, given map[string]bool) (map[string]bool, error) {
	want := map[string]bool{}
	for _, s := range strings.Split(only, ",") {
		s = strings.TrimSpace(s)
		if s == "" {
			continue
		}
		if !slices.Contains(sections, s) {
			return nil, fmt.Errorf("-only: unknown section %q (valid: %s)", s, strings.Join(sections, ","))
		}
		want[s] = true
	}
	if len(want) == 0 {
		for _, s := range sections {
			want[s] = true
		}
	}
	suite := want["fig12"] || want["table2"] || want["table3"] || want["table4"] || want["fig14"]
	for _, name := range []string{"k", "iters", "workers", "warm-dir", "trace", "metrics"} {
		switch {
		case !given[name]:
		case !suite && !want["fig13"]:
			return nil, fmt.Errorf("-only table1 solves nothing; it does not use -%s", name)
		case name == "k" && !suite:
			return nil, fmt.Errorf("-k sets the beam width of the suite-run tables (fig12,table2,table3,table4,fig14); fig13 runs its own k grid")
		}
	}
	return want, nil
}
