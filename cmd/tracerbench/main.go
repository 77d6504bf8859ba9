// Command tracerbench is the repository's benchmark: it runs one workload of
// the TRACER solver stack under a machine-independent quota, checks every
// verdict against a committed golden table, and prints its metrics.
//
// Usage:
//
//	tracerbench --workload sweep|batch|edit|serve [--seed N] [--seconds S]
//	            [--trace 0|1] [--spans FILE] [--out FILE]
//	tracerbench --write-golden golden/verdicts.tsv.gz
//	tracerbench compare PARENT.jsonl CHANGE.jsonl
//
// A run repeats whole passes over the workload's inputs and starts another
// only while it is predicted to end within --seconds. With --trace 0 it
// prints the end-to-end metrics; with --trace 1 it runs each pass twice,
// untraced and traced, and prints the per-layer metrics. The last line of
// standard output is the result as one JSON object. README.md describes the
// workloads and metrics; run.sh builds and runs the benchmark from the root
// of the repository.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"time"
)

// setupReps is how many times a run builds its inputs; setup_s is the
// median, and the last build is the one measured.
const setupReps = 9

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	if err := runMain(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "tracerbench:", err)
		os.Exit(1)
	}
}

// metricValue is one printed metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object a run prints last.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// record is one line of an --out file: a result tagged with its run.
type record struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    int    `json:"trace"`
	Result   result `json:"result"`
}

func runMain(args []string) error {
	fs := flag.NewFlagSet("tracerbench", flag.ContinueOnError)
	name := fs.String("workload", "sweep", "workload: sweep, batch, edit or serve")
	seed := fs.Int64("seed", 1, "seed of the workload's input order")
	seconds := fs.Float64("seconds", 25, "measure whole passes for about this long")
	trace := fs.Int("trace", 0, "1: traced run printing the per-layer metrics")
	spansPath := fs.String("spans", "", "with --trace 1, write the recorded spans to this JSON file")
	outPath := fs.String("out", "", "append the result, tagged with workload and seed, to this JSON-lines file")
	goldenPath := fs.String("write-golden", "", "solve the corpus through every path and write the golden table here")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *goldenPath != "" {
		return writeGolden(*goldenPath)
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil {
		return fmt.Errorf("unknown workload %q", *name)
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("--trace %d: want 0 or 1", *trace)
	}
	g, err := parseGolden(goldenTSV)
	if err != nil {
		return err
	}
	res, t, err := run(w, g, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1)
	if err != nil {
		return err
	}
	if *spansPath != "" && t != nil {
		if err := t.writeSpans(*spansPath); err != nil {
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	if *outPath != "" {
		if err := appendRecord(*outPath, record{Workload: w.name, Seed: *seed, Trace: *trace, Result: res}); err != nil {
			return err
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// run measures one workload: set-up, then whole passes until the next one
// is predicted to overrun the budget. A traced run pairs every pass with an
// untraced one over the same order, alternating which goes first.
func run(w *workload, g golden, seed int64, budget time.Duration, traced bool) (result, *tracer, error) {
	var sp *speedo
	if w.scaled {
		sp = &speedo{k: newKernel()}
	}
	var r runner
	var setupS []float64
	before := sp.calibrate()
	for i := 0; i < setupReps; i++ {
		if r != nil {
			r.close()
		}
		start := time.Now()
		var err error
		if r, err = w.setup(seed); err != nil {
			return result{}, nil, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, time.Since(start).Seconds())
	}
	defer r.close()
	if f := sp.factor(before, sp.calibrate()); f != 1 {
		for i := range setupS {
			setupS[i] *= f
		}
	}

	var t *tracer
	if traced {
		t = newTracer()
	}
	plain, trac := &tally{}, &tally{}
	onePass := func(n int, tr *tracer) error {
		tl := plain
		if tr != nil {
			tl = trac
		}
		start := time.Now()
		sp.begin(tl)
		outs, err := r.pass(n, tr, tl, sp)
		if err != nil {
			return err
		}
		wall := ms(time.Since(start))
		if sp != nil {
			wall = sp.end()
		}
		tl.passMS = append(tl.passMS, wall)
		tl.check(g, outs)
		return nil
	}
	start := time.Now()
	var last time.Duration
	for n := 0; n == 0 || time.Since(start)+last <= budget; n++ {
		passStart := time.Now()
		order := []*tracer{nil}
		if traced {
			order = []*tracer{nil, t}
			if n%2 == 1 {
				order = []*tracer{t, nil}
			}
		}
		for _, tr := range order {
			if err := onePass(n, tr); err != nil {
				return result{}, nil, err
			}
		}
		last = time.Since(passStart)
	}

	res := result{
		Attempted: plain.attempted + trac.attempted,
		Failed:    plain.failed + trac.failed,
		Metrics:   map[string]metricValue{},
	}
	res.Correct = res.Failed == 0 && plain.quotaTrips+trac.quotaTrips == 0
	if !traced {
		vals := endToEndValues(setupS, plain)
		for _, m := range endToEnd {
			res.Metrics[m.name] = metricValue{vals[m.name], m.unit}
		}
	} else {
		vals := layerValues(t, trac, plain)
		for _, m := range perLayer {
			res.Metrics[m.name] = metricValue{vals[m.name], m.unit}
		}
	}
	fmt.Fprintf(os.Stderr, "tracerbench: %s seed %d: passes %.0f ms untraced, %.0f ms traced (kernel median %.1f ms); %d verdicts, %d decided, %d failed, %d quota trips\n",
		w.name, seed, plain.passMS, trac.passMS, sp.medianKernel(),
		res.Attempted, plain.decided+trac.decided, res.Failed, plain.quotaTrips+trac.quotaTrips)
	return res, t, nil
}

func appendRecord(path string, rec record) (err error) {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, f.Close()) }()
	_, err = f.Write(append(line, '\n'))
	return err
}
