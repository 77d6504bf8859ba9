package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"text/tabwriter"
)

// compareMain implements `tracerbench compare PARENT CHANGE`: each file
// holds --out records of runs of one commit. For every (workload, metric)
// present on both sides it reports medians and quartiles and a verdict:
//
//   - deterministic counts must repeat exactly on each side, or the metric
//     is flagged NONDETERMINISTIC; differing sides are reported as a count
//     change, never as a speed-up;
//   - "gain" needs the change to win at least 9 of 10 pairs (run i of each
//     side; ties count for neither) and the medians to differ by more than
//     the parent's quartile spread;
//   - an end-to-end metric whose median worsened by more than its bound is a
//     REGRESSION; when the parent's spread exceeds the bound it is
//     "unresolved", unless every change run beats every parent run.
//
// It exits 1 on any regression or nondeterminism.
func compareMain(args []string) int {
	fs := flag.NewFlagSet("tracerbench compare", flag.ContinueOnError)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: tracerbench compare PARENT.jsonl CHANGE.jsonl")
		return 2
	}
	parent, err := readRecords(fs.Arg(0))
	if err == nil {
		var change map[string]map[string][]float64
		if change, err = readRecords(fs.Arg(1)); err == nil {
			if compare(os.Stdout, parent, change) {
				return 1
			}
			return 0
		}
	}
	fmt.Fprintln(os.Stderr, "tracerbench compare:", err)
	return 2
}

// readRecords groups the metric values of a records file by workload and
// metric, in file order.
func readRecords(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]map[string][]float64{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if out[rec.Workload] == nil {
			out[rec.Workload] = map[string][]float64{}
		}
		for name, m := range rec.Result.Metrics {
			out[rec.Workload][name] = append(out[rec.Workload][name], m.Value)
		}
	}
	return out, sc.Err()
}

// quartiles returns the quartiles of xs as Python's
// statistics.quantiles(xs, n=4) computes them (the "exclusive" method).
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 1 {
		return s[0], s[0], s[0]
	}
	m := len(s) + 1
	q := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

func allEqual(xs []float64) bool {
	for _, x := range xs {
		if x != xs[0] {
			return false
		}
	}
	return true
}

// metricDef finds a metric's definition; ok is false for unknown names.
func metricDef(name string) (m metric, endToEndMetric, ok bool) {
	for _, m := range endToEnd {
		if m.name == name {
			return m, true, true
		}
	}
	for _, m := range perLayer {
		if m.name == name {
			return m, false, true
		}
	}
	return metric{}, false, false
}

// compare writes the report and reports whether any metric regressed or
// was nondeterministic.
func compare(w io.Writer, parent, change map[string]map[string][]float64) (bad bool) {
	tw := tabwriter.NewWriter(w, 0, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tparent median [q1, q3]\tchange median [q1, q3]\twins\tverdict")
	var wls []string
	for wl := range parent {
		if change[wl] != nil {
			wls = append(wls, wl)
		}
	}
	sort.Strings(wls)
	for _, wl := range wls {
		var names []string
		for name := range parent[wl] {
			if _, _, ok := metricDef(name); ok && len(change[wl][name]) > 0 {
				names = append(names, name)
			}
		}
		sort.Strings(names)
		for _, name := range names {
			p, c := parent[wl][name], change[wl][name]
			m, e2e, _ := metricDef(name)
			v, isBad := judge(m, e2e, p, c)
			bad = bad || isBad
			p1, p2, p3 := quartiles(p)
			c1, c2, c3 := quartiles(c)
			wins, pairs := winsOf(m, p, c)
			fmt.Fprintf(tw, "%s\t%s\t%.4g [%.4g, %.4g]\t%.4g [%.4g, %.4g]\t%d/%d\t%s\n",
				wl, name, p2, p1, p3, c2, c1, c3, wins, pairs, v)
		}
	}
	tw.Flush()
	return bad
}

// better reports whether a beats b under m's direction.
func better(m metric, a, b float64) bool {
	if m.better == "higher" {
		return a > b
	}
	return a < b
}

// winsOf counts the pairs (run i of each side) the change wins.
func winsOf(m metric, p, c []float64) (wins, pairs int) {
	pairs = min(len(p), len(c))
	for i := 0; i < pairs; i++ {
		if better(m, c[i], p[i]) {
			wins++
		}
	}
	return wins, pairs
}

// judge applies the comparison rules to one (workload, metric).
func judge(m metric, e2e bool, p, c []float64) (string, bool) {
	if deterministic[m.name] {
		switch {
		case !allEqual(p) || !allEqual(c):
			return "NONDETERMINISTIC", true
		case p[0] == c[0]:
			return "same count", false
		}
		return fmt.Sprintf("count changed by %+g", c[0]-p[0]), false
	}
	p1, pm, p3 := quartiles(p)
	_, cm, _ := quartiles(c)
	wins, pairs := winsOf(m, p, c)
	if pairs > 0 && wins*10 >= pairs*9 && better(m, cm, pm) && abs(cm-pm) > p3-p1 {
		return "gain", false
	}
	if !e2e {
		return "no claim", false
	}
	worse := (cm - pm) / pm
	if m.better == "higher" {
		worse = -worse
	}
	if (p3-p1)/pm > m.bound && !dominates(m, c, p) {
		return fmt.Sprintf("unresolved (parent spread %.1f%% > bound %.1f%%)", 100*(p3-p1)/pm, 100*m.bound), false
	}
	if worse > m.bound {
		return fmt.Sprintf("REGRESSION (%.1f%% worse, bound %.1f%%)", 100*worse, 100*m.bound), true
	}
	return "within bound", false
}

// dominates reports whether every run in a beats every run in b.
func dominates(m metric, a, b []float64) bool {
	for _, x := range a {
		for _, y := range b {
			if !better(m, x, y) {
				return false
			}
		}
	}
	return true
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
