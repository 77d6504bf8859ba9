// Command paperbench regenerates every table and figure of the paper's
// evaluation (§6) on the synthetic benchmark suite.
//
// Usage:
//
//	paperbench [-k 5] [-timeout 2s] [-iters 200] [-only table1,fig12,...]
//
// Without -only it runs everything, in the paper's order. Results that share
// the same (benchmark, client, k) run are computed once and cached.
//
// Beyond the paper's artifacts, two warm-start experiments measure the
// persistent clause store (internal/warm): fig12warm re-solves the whole
// Figure 12 workload against a freshly populated store, and editchain
// replays -editchain-steps single-statement edits of -editchain-bench,
// cold vs warm. -warm-dir warm-starts the paper tables themselves.
//
// The walls it prints are single-shot timings under a wall-clock budget;
// the repository's performance record is cmd/tracerbench.
//
// Observability (see internal/obs and ARCHITECTURE.md):
//
//	-trace events.ndjson   write the per-query structured event stream
//	-metrics               print aggregated counters/gauges/timers at exit
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
	k := flag.Int("k", 5, "beam width k of the backward meta-analysis")
	timeout := flag.Duration("timeout", 2*time.Second, "per-query wall-clock budget")
	iters := flag.Int("iters", 200, "per-query CEGAR iteration cap")
	workers := flag.Int("workers", 1, "concurrent query resolutions (0/1 = sequential)")
	batchWorkers := flag.Int("batch-workers", 1, "worker pool of the grouped batch solver; results are identical for every value")
	only := flag.String("only", "", "comma-separated subset: table1,fig12,fig13,table2,table3,table4,fig14,nullness,batch,fig12warm,editchain")
	warmDir := flag.String("warm-dir", "", "warm-start store directory for the table/figure runs (\"\" = cold); fig12warm and editchain always use their own store")
	editBench := flag.String("editchain-bench", "hedc", "benchmark the editchain experiment edits")
	editSteps := flag.Int("editchain-steps", 6, "number of single-statement edits in the editchain experiment")
	tracePath := flag.String("trace", "", "write NDJSON events of every CEGAR iteration to this file")
	metrics := flag.Bool("metrics", false, "print aggregated counters/gauges/timers at exit")
	cpuprofile := flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a pprof heap profile to this file at exit")
	flag.Parse()

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

	var sinks []obs.Recorder
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
		sinks = append(sinks, nd)
	}
	var agg *obs.Agg
	if *metrics {
		agg = obs.NewAgg()
		sinks = append(sinks, agg)
	}

	// SIGINT cancels the in-flight experiment cooperatively; the loop below
	// then stops scheduling new experiments, so the NDJSON trace and metrics
	// of the completed ones are still written.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	opts := bench.RunOptions{K: *k, MaxIters: *iters, Timeout: *timeout, Workers: *workers,
		BatchWorkers: *batchWorkers, Recorder: obs.Multi(sinks...), Context: ctx,
		WarmDir: *warmDir}
	want := map[string]bool{}
	if *only != "" {
		for _, s := range strings.Split(*only, ",") {
			want[strings.TrimSpace(s)] = true
		}
	}
	sel := func(name string) bool { return len(want) == 0 || want[name] }

	type experiment struct {
		name string
		run  func() (string, error)
	}
	experiments := []experiment{
		{"table1", func() (string, error) {
			rows, err := bench.Table1()
			if err != nil {
				return "", err
			}
			return bench.RenderTable1(rows), nil
		}},
		// nullness runs before fig12 so its wall measures the null-deref
		// sweep cold; fig12's null-deref rows then reuse the shared run
		// cache, as tables 2-4 reuse fig12's runs.
		{"nullness", func() (string, error) {
			rows, err := bench.NullnessTable(opts)
			if err != nil {
				return "", err
			}
			return bench.RenderNullnessTable(rows), nil
		}},
		{"fig12", func() (string, error) {
			rows, err := bench.Figure12(opts)
			if err != nil {
				return "", err
			}
			return bench.RenderFigure12(rows), nil
		}},
		{"fig13", func() (string, error) {
			rows, err := bench.Figure13(opts)
			if err != nil {
				return "", err
			}
			return bench.RenderFigure13(rows), nil
		}},
		{"table2", func() (string, error) {
			rows, err := bench.Table2(opts)
			if err != nil {
				return "", err
			}
			return bench.RenderTable2(rows), nil
		}},
		{"table3", func() (string, error) {
			rows, err := bench.Table3(opts)
			if err != nil {
				return "", err
			}
			return bench.RenderTable3(rows), nil
		}},
		{"table4", func() (string, error) {
			rows, err := bench.Table4(opts)
			if err != nil {
				return "", err
			}
			return bench.RenderTable4(rows), nil
		}},
		{"fig14", func() (string, error) {
			rows, err := bench.Figure14(opts)
			if err != nil {
				return "", err
			}
			return bench.RenderFigure14(rows), nil
		}},
		{"batch", func() (string, error) {
			rows, err := bench.BatchTable(opts)
			if err != nil {
				return "", err
			}
			return bench.RenderBatchTable(rows, *batchWorkers), nil
		}},
		{"fig12warm", func() (string, error) {
			dir, err := os.MkdirTemp("", "paperbench-warm-")
			if err != nil {
				return "", err
			}
			defer os.RemoveAll(dir)
			rows, err := bench.WarmTable(opts, dir)
			if err != nil {
				return "", err
			}
			return bench.RenderWarmTable(rows), nil
		}},
		{"editchain", func() (string, error) {
			var cfg *bench.Config
			for _, c := range bench.Suite() {
				if c.Name == *editBench {
					cc := c
					cfg = &cc
					break
				}
			}
			if cfg == nil {
				return "", fmt.Errorf("editchain: unknown benchmark %q", *editBench)
			}
			dir, err := os.MkdirTemp("", "paperbench-editchain-")
			if err != nil {
				return "", err
			}
			defer os.RemoveAll(dir)
			rows, err := bench.EditChainTable(*cfg, *editSteps, opts, dir)
			if err != nil {
				return "", err
			}
			return bench.RenderEditChainTable(cfg.Name, rows), nil
		}},
	}

	for _, e := range experiments {
		if !sel(e.name) {
			continue
		}
		if ctx.Err() != nil {
			fmt.Printf("[interrupted: skipping %s and later experiments]\n\n", e.name)
			break
		}
		start := time.Now()
		out, err := e.run()
		if err != nil {
			return fmt.Errorf("%s: %w", e.name, err)
		}
		wall := time.Since(start)
		fmt.Println(out)
		fmt.Printf("[%s regenerated in %v with k=%d, timeout=%v]\n\n", e.name, wall.Round(time.Millisecond), *k, *timeout)
	}

	if *metrics {
		fmt.Print(agg.Render())
	}
	return nil
}
