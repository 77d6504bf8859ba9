package main

import (
	"bufio"
	"bytes"
	"compress/gzip"
	_ "embed"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"tracer/internal/core"
)

// goldenTSV is the committed verdict table: one row per query of the suite
// and of every edit-chain step. It is written by -write-golden, and only
// when every solving path agrees on every row.
//
//go:embed golden/verdicts.tsv.gz
var goldenTSV []byte

// golden maps goldenKey(program, client, query key) to the expected verdict.
type golden map[string]verdict

const goldenHeader = "# program\tclient\tquery key\tstatus\tcost\tabstraction (parameter names)"

// parseGolden reads a gzip-compressed golden table.
func parseGolden(data []byte) (golden, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("golden table: %w", err)
	}
	g := golden{}
	sc := bufio.NewScanner(zr)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for line := 1; sc.Scan(); line++ {
		text := sc.Text()
		if strings.HasPrefix(text, "#") || text == "" {
			continue
		}
		f := strings.Split(text, "\t")
		if len(f) != 6 {
			return nil, fmt.Errorf("golden table line %d: %d fields, want 6", line, len(f))
		}
		cost, err := strconv.Atoi(f[4])
		if err != nil {
			return nil, fmt.Errorf("golden table line %d: cost: %w", line, err)
		}
		g[goldenKey(f[0], f[1], f[2])] = verdict{status: f[3], cost: cost, abs: f[5]}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("golden table: %w", err)
	}
	return g, nil
}

// encode renders the table as gzip-compressed TSV, rows sorted.
func (g golden) encode() ([]byte, error) {
	keys := make([]string, 0, len(g))
	for k := range g {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	fmt.Fprintln(zw, goldenHeader)
	for _, k := range keys {
		v := g[k]
		fmt.Fprintf(zw, "%s\t%s\t%d\t%s\n", k, v.status, v.cost, v.abs)
	}
	if err := zw.Close(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// outcome is one delivered answer awaiting its check: the query, and the
// verdict with its iteration count. Transport errors and non-200 responses
// carry their description as the status, which never matches a verdict.
type outcome struct {
	key   string
	v     verdict
	iters int
}

// tally accumulates one mode (traced or untraced) of a run.
type tally struct {
	passMS    []float64 // wall of each pass
	latencyMS []float64 // one per delivered verdict
	jobMS     []float64 // one per job: see README.md "End-to-end metrics"

	attempted, decided, failed int
	// quotaTrips counts exhausted verdicts that used fewer than maxIters
	// iterations: a budget other than the iteration cap decided them.
	quotaTrips int
}

// maxReported bounds how many failures a run describes on standard error.
const maxReported = 10

// check scores outcomes against the golden table:
//   - decided in both: must match exactly, or it fails;
//   - decided in the table but exhausted in the run: lowers decided_frac;
//   - exhausted in the table: the run may decide it;
//   - failed, a transport error, or a query the table lacks: fails.
func (tl *tally) check(g golden, outs []outcome) {
	for _, o := range outs {
		tl.attempted++
		exhausted := o.v.status == core.Exhausted.String()
		if exhausted && o.iters < maxIters {
			tl.quotaTrips++
		}
		want, found := g[o.key]
		ok := found && (exhausted || o.v.decided() && (!want.decided() || o.v == want))
		if ok && o.v.decided() {
			tl.decided++
		}
		if !ok {
			if tl.failed < maxReported {
				fmt.Fprintf(os.Stderr, "tracerbench: wrong verdict %q: got %+v, want %+v (in table: %t)\n",
					o.key, o.v, want, found)
			}
			tl.failed++
		}
	}
}

// writeGolden solves the whole corpus through every path and writes the
// table to path, refusing when any two paths disagree on any row or when a
// budget other than the iteration cap decided a verdict.
func writeGolden(path string) error {
	progs := append(suiteSources(), editSources()...)
	if err := load(progs); err != nil {
		return err
	}
	jobs := jobsOf(progs)
	paths := []struct {
		name  string
		solve func([]*job) (map[string]outcome, error)
	}{
		{"per-query Solve", solveEach},
		{"SolveBatch workers=1", func(js []*job) (map[string]outcome, error) { return solveBatches(js, 1) }},
		{"SolveBatch workers=2", func(js []*job) (map[string]outcome, error) { return solveBatches(js, 2) }},
		{"tracerd", solveServed},
	}
	var ref map[string]outcome
	for i, p := range paths {
		start := time.Now()
		got, err := p.solve(jobs)
		if err != nil {
			return fmt.Errorf("%s: %w", p.name, err)
		}
		fmt.Fprintf(os.Stderr, "tracerbench: %s solved %d queries in %.1fs\n", p.name, len(got), time.Since(start).Seconds())
		if i == 0 {
			ref = got
			continue
		}
		if err := agree(paths[0].name, ref, p.name, got); err != nil {
			return err
		}
	}
	g := golden{}
	for k, o := range ref {
		if strings.ContainsAny(k, "\n") || strings.Count(k, "\t") != 2 {
			return fmt.Errorf("query %q cannot be stored in a TSV row", k)
		}
		if o.v.status == core.Exhausted.String() && o.iters < maxIters {
			return fmt.Errorf("query %q exhausted after %d iterations: the step quota decided it", k, o.iters)
		}
		if !o.v.decided() && o.v.status != core.Exhausted.String() {
			return fmt.Errorf("query %q: %s", k, o.v.status)
		}
		g[k] = o.v
	}
	data, err := g.encode()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// agree reports the first rows on which two paths differ.
func agree(refName string, ref map[string]outcome, name string, got map[string]outcome) error {
	var diffs []string
	for k, o := range ref {
		if g, ok := got[k]; !ok || g.v != o.v {
			diffs = append(diffs, fmt.Sprintf("%q: %s %+v, %s %+v", k, refName, o.v, name, g.v))
		}
	}
	if len(got) != len(ref) {
		diffs = append(diffs, fmt.Sprintf("%s solved %d queries, %s %d", refName, len(ref), name, len(got)))
	}
	if len(diffs) == 0 {
		return nil
	}
	sort.Strings(diffs)
	if len(diffs) > maxReported {
		diffs = append(diffs[:maxReported], fmt.Sprintf("... %d more", len(diffs)-maxReported))
	}
	return fmt.Errorf("paths disagree on %d rows:\n%s", len(diffs), strings.Join(diffs, "\n"))
}

func collect(outs []outcome) map[string]outcome {
	m := make(map[string]outcome, len(outs))
	for _, o := range outs {
		m[o.key] = o
	}
	return m
}

func solveEach(jobs []*job) (map[string]outcome, error) {
	var outs []outcome
	for _, j := range jobs {
		o, err := sweepJob(j, nil, nil, identity(len(j.keys)))
		if err != nil {
			return nil, err
		}
		outs = append(outs, o...)
	}
	return collect(outs), nil
}

func solveBatches(jobs []*job, workers int) (map[string]outcome, error) {
	var outs []outcome
	for _, j := range jobs {
		o, _, err := batchJob(j, nil, workers)
		if err != nil {
			return nil, err
		}
		outs = append(outs, o...)
	}
	return collect(outs), nil
}

func solveServed(jobs []*job) (map[string]outcome, error) {
	svc, err := startService()
	if err != nil {
		return nil, err
	}
	defer svc.close()
	reqs, err := requestsOf(jobs)
	if err != nil {
		return nil, err
	}
	outs := svc.replay(reqs, identity(len(reqs)), nil, nil)
	return collect(outs), nil
}

func identity(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}
