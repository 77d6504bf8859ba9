package bench

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"tracer/internal/core"
)

// This file regenerates every table and figure of §6. Each experiment
// returns both structured rows (consumed by tests) and a rendered text
// table (printed by cmd/paperbench and the testing.B benchmarks).

// ---------- shared statistics helpers ----------

type summary struct {
	Min, Max int
	Avg      float64
	N        int
}

func summarize(xs []int) summary {
	if len(xs) == 0 {
		return summary{}
	}
	s := summary{Min: xs[0], Max: xs[0], N: len(xs)}
	total := 0
	for _, x := range xs {
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
		total += x
	}
	s.Avg = float64(total) / float64(len(xs))
	return s
}

func (s summary) String() string {
	if s.N == 0 {
		return "-    -    -"
	}
	return fmt.Sprintf("%-4d %-4d %.1f", s.Min, s.Max, s.Avg)
}

type msSummary struct {
	Min, Max, Avg float64
	N             int
}

func summarizeMs(xs []float64) msSummary {
	if len(xs) == 0 {
		return msSummary{}
	}
	s := msSummary{Min: xs[0], Max: xs[0], N: len(xs)}
	total := 0.0
	for _, x := range xs {
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
		total += x
	}
	s.Avg = total / float64(len(xs))
	return s
}

func fmtMs(ms float64) string {
	switch {
	case ms >= 60_000:
		return fmt.Sprintf("%.1fm", ms/60_000)
	case ms >= 1_000:
		return fmt.Sprintf("%.1fs", ms/1_000)
	default:
		return fmt.Sprintf("%.0fms", ms)
	}
}

func (s msSummary) String() string {
	if s.N == 0 {
		return "-     -     -"
	}
	return fmt.Sprintf("%-5s %-5s %s", fmtMs(s.Min), fmtMs(s.Max), fmtMs(s.Avg))
}

// iterations and sizes and times filtered by status.
func iters(r *ClientResult, st core.Status) []int {
	var out []int
	for _, o := range r.Outcomes {
		if o.Status == st {
			out = append(out, o.Iterations)
		}
	}
	return out
}

func absSizes(r *ClientResult) []int {
	var out []int
	for _, o := range r.Outcomes {
		if o.Status == core.Proved {
			out = append(out, o.AbsSize)
		}
	}
	return out
}

func timesMs(r *ClientResult, st core.Status) []float64 {
	var out []float64
	for _, o := range r.Outcomes {
		if o.Status == st {
			out = append(out, o.Millis)
		}
	}
	return out
}

// ---------- Table 1: benchmark statistics ----------

// Table1Row mirrors one row of Table 1.
type Table1Row struct {
	Name, Desc               string
	AppClasses, TotalClasses int
	AppMethods, TotalMethods int
	AppAtoms, TotalAtoms     int
	Lines                    int
	Log2Typestate, Log2Escape,
	Log2Nullness int
}

// Table1 computes benchmark statistics for the whole suite.
func Table1() ([]Table1Row, error) {
	var rows []Table1Row
	for _, cfg := range Suite() {
		b, err := Load(cfg)
		if err != nil {
			return nil, err
		}
		st := b.Prog.ComputeStats(b.Source)
		rows = append(rows, Table1Row{
			Name: cfg.Name, Desc: cfg.Desc,
			AppClasses: st.AppClasses, TotalClasses: st.TotalClasses,
			AppMethods: st.AppMethods, TotalMethods: st.TotalMethods,
			AppAtoms: st.AppAtoms, TotalAtoms: st.TotalAtoms,
			Lines:         st.SourceLines,
			Log2Typestate: st.TypestateParams, Log2Escape: st.EscapeParams,
			Log2Nullness: st.NullnessParams,
		})
	}
	return rows, nil
}

// RenderTable1 renders Table 1 as aligned text.
func RenderTable1(rows []Table1Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 1. Benchmark statistics (synthetic stand-ins; see DESIGN.md).\n")
	fmt.Fprintf(&b, "%-9s | %-36s | %11s | %11s | %13s | %5s | %s\n",
		"", "description", "classes", "methods", "atoms", "lines", "log2(#abstractions)")
	fmt.Fprintf(&b, "%-9s | %-36s | %5s %5s | %5s %5s | %6s %6s | %5s | %9s %9s %9s\n",
		"", "", "app", "total", "app", "total", "app", "total", "", "type-state", "thr-esc", "null-drf")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-9s | %-36s | %5d %5d | %5d %5d | %6d %6d | %5d | %9d %9d %9d\n",
			r.Name, r.Desc, r.AppClasses, r.TotalClasses, r.AppMethods, r.TotalMethods,
			r.AppAtoms, r.TotalAtoms, r.Lines, r.Log2Typestate, r.Log2Escape, r.Log2Nullness)
	}
	return b.String()
}

// ---------- Figure 12: precision ----------

// Figure12Row is one (benchmark, client) precision bar.
type Figure12Row struct {
	Name       string
	Client     Client
	Total      int
	Proven     int
	Impossible int
	Unresolved int
}

// Figure12 resolves all queries of every registered client on the whole
// suite.
func Figure12(opts RunOptions) ([]Figure12Row, error) {
	var rows []Figure12Row
	for _, cfg := range Suite() {
		b, err := Load(cfg)
		if err != nil {
			return nil, err
		}
		for _, cl := range Clients() {
			r, err := Run(b, cl, opts)
			if err != nil {
				return nil, err
			}
			rows = append(rows, Figure12Row{
				Name: cfg.Name, Client: cl, Total: len(r.Outcomes),
				Proven: r.Proven(), Impossible: r.Impossible(), Unresolved: r.Unresolved(),
			})
		}
	}
	return rows, nil
}

// RenderFigure12 renders the precision figure as a text bar chart.
func RenderFigure12(rows []Figure12Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 12. Precision: queries proven / impossible / unresolved.\n")
	fmt.Fprintf(&b, "%-9s %-13s %7s | %14s %14s %14s | bar (#=proven, x=impossible, .=unresolved)\n",
		"", "client", "queries", "proven", "impossible", "unresolved")
	for _, r := range rows {
		pct := func(n int) float64 {
			if r.Total == 0 {
				return 0
			}
			return 100 * float64(n) / float64(r.Total)
		}
		bar := strings.Repeat("#", int(pct(r.Proven)/4)) +
			strings.Repeat("x", int(pct(r.Impossible)/4)) +
			strings.Repeat(".", int(pct(r.Unresolved)/4))
		fmt.Fprintf(&b, "%-9s %-13s %7d | %6d (%4.1f%%) %6d (%4.1f%%) %6d (%4.1f%%) | %s\n",
			r.Name, r.Client, r.Total,
			r.Proven, pct(r.Proven), r.Impossible, pct(r.Impossible),
			r.Unresolved, pct(r.Unresolved), bar)
	}
	return b.String()
}

// ---------- Figure 13: effect of k on thread-escape running time ----------

// Figure13Row is one (benchmark, k) measurement.
type Figure13Row struct {
	Name       string
	K          int
	WallMilli  float64
	Unresolved int
	TotalIters int
}

// Figure13 varies the beam width k over the smallest four benchmarks.
func Figure13(opts RunOptions) ([]Figure13Row, error) {
	var rows []Figure13Row
	for _, cfg := range SmallSuite() {
		b, err := Load(cfg)
		if err != nil {
			return nil, err
		}
		for _, k := range []int{1, 5, 10} {
			o := opts
			o.K = k
			start := time.Now()
			r, err := Run(b, Escape, o)
			if err != nil {
				return nil, err
			}
			wall := r.WallMilli
			if wall == 0 {
				wall = float64(time.Since(start).Microseconds()) / 1000
			}
			totalIters := 0
			for _, o := range r.Outcomes {
				totalIters += o.Iterations
			}
			rows = append(rows, Figure13Row{Name: cfg.Name, K: k, WallMilli: wall, Unresolved: r.Unresolved(), TotalIters: totalIters})
		}
	}
	return rows, nil
}

// RenderFigure13 renders the k sweep.
func RenderFigure13(rows []Figure13Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 13. Thread-escape running time for k ∈ {1, 5, 10} (smallest four benchmarks).\n")
	fmt.Fprintf(&b, "%-9s | %4s | %10s | %10s | %10s\n", "", "k", "total time", "iterations", "unresolved")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-9s | %4d | %10s | %10d | %10d\n", r.Name, r.K, fmtMs(r.WallMilli), r.TotalIters, r.Unresolved)
	}
	return b.String()
}

// ---------- Table 2: scalability ----------

// Table2Row is one benchmark's scalability summary.
type Table2Row struct {
	Name string
	// Iteration statistics per client and resolution.
	TSProvenIters, TSImpossibleIters   summary
	EscProvenIters, EscImpossibleIters summary
	// Thread-escape per-query running times.
	EscProvenMs, EscImpossibleMs msSummary
}

// Table2 gathers iteration and running-time statistics (k = opts.K).
func Table2(opts RunOptions) ([]Table2Row, error) {
	var rows []Table2Row
	for _, cfg := range Suite() {
		b, err := Load(cfg)
		if err != nil {
			return nil, err
		}
		ts, err := Run(b, Typestate, opts)
		if err != nil {
			return nil, err
		}
		esc, err := Run(b, Escape, opts)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Table2Row{
			Name:               cfg.Name,
			TSProvenIters:      summarize(iters(ts, core.Proved)),
			TSImpossibleIters:  summarize(iters(ts, core.Impossible)),
			EscProvenIters:     summarize(iters(esc, core.Proved)),
			EscImpossibleIters: summarize(iters(esc, core.Impossible)),
			EscProvenMs:        summarizeMs(timesMs(esc, core.Proved)),
			EscImpossibleMs:    summarizeMs(timesMs(esc, core.Impossible)),
		})
	}
	return rows, nil
}

// RenderTable2 renders the scalability table.
func RenderTable2(rows []Table2Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 2. Scalability: iterations (min max avg) and thread-escape per-query times.\n")
	fmt.Fprintf(&b, "%-9s | %-30s | %-30s | %-40s\n",
		"", "type-state iterations", "thread-escape iterations", "thread-escape running time")
	fmt.Fprintf(&b, "%-9s | %-14s  %-14s | %-14s  %-14s | %-19s  %-19s\n",
		"", "proven", "impossible", "proven", "impossible", "proven", "impossible")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-9s | %-14s  %-14s | %-14s  %-14s | %-19s  %-19s\n",
			r.Name, r.TSProvenIters, r.TSImpossibleIters,
			r.EscProvenIters, r.EscImpossibleIters,
			r.EscProvenMs, r.EscImpossibleMs)
	}
	return b.String()
}

// ---------- Table 3: cheapest abstraction sizes ----------

// Table3Row summarizes cheapest-abstraction sizes for proven queries.
type Table3Row struct {
	Name    string
	TS, Esc summary
}

// Table3 gathers cheapest-abstraction size statistics.
func Table3(opts RunOptions) ([]Table3Row, error) {
	var rows []Table3Row
	for _, cfg := range Suite() {
		b, err := Load(cfg)
		if err != nil {
			return nil, err
		}
		ts, err := Run(b, Typestate, opts)
		if err != nil {
			return nil, err
		}
		esc, err := Run(b, Escape, opts)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Table3Row{Name: cfg.Name, TS: summarize(absSizes(ts)), Esc: summarize(absSizes(esc))})
	}
	return rows, nil
}

// RenderTable3 renders the cheapest-abstraction size table.
func RenderTable3(rows []Table3Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 3. Cheapest abstraction size for proven queries (min max avg).\n")
	fmt.Fprintf(&b, "%-9s | %-16s | %-16s\n", "", "type-state", "thread-escape")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-9s | %-16s | %-16s\n", r.Name, r.TS, r.Esc)
	}
	return b.String()
}

// ---------- Table 4: cheapest abstraction reuse ----------

// Table4Row summarizes how many proven queries share a cheapest abstraction.
type Table4Row struct {
	Name         string
	TSGroups     int
	TSGroupSize  summary
	EscGroups    int
	EscGroupSize summary
}

func groupSizes(r *ClientResult) (int, summary) {
	counts := map[string]int{}
	for _, o := range r.Outcomes {
		if o.Status == core.Proved {
			counts[o.Abstraction]++
		}
	}
	var sizes []int
	for _, n := range counts {
		sizes = append(sizes, n)
	}
	sort.Ints(sizes)
	return len(counts), summarize(sizes)
}

// Table4 gathers abstraction-reuse statistics.
func Table4(opts RunOptions) ([]Table4Row, error) {
	var rows []Table4Row
	for _, cfg := range Suite() {
		b, err := Load(cfg)
		if err != nil {
			return nil, err
		}
		ts, err := Run(b, Typestate, opts)
		if err != nil {
			return nil, err
		}
		esc, err := Run(b, Escape, opts)
		if err != nil {
			return nil, err
		}
		row := Table4Row{Name: cfg.Name}
		row.TSGroups, row.TSGroupSize = groupSizes(ts)
		row.EscGroups, row.EscGroupSize = groupSizes(esc)
		rows = append(rows, row)
	}
	return rows, nil
}

// RenderTable4 renders the reuse table.
func RenderTable4(rows []Table4Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 4. Cheapest abstraction reuse for proven queries (#groups; group size min max avg).\n")
	fmt.Fprintf(&b, "%-9s | %-26s | %-26s\n", "", "type-state", "thread-escape")
	fmt.Fprintf(&b, "%-9s | %8s %-16s | %8s %-16s\n", "", "#groups", "min max avg", "#groups", "min max avg")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-9s | %8d %-16s | %8d %-16s\n",
			r.Name, r.TSGroups, r.TSGroupSize, r.EscGroups, r.EscGroupSize)
	}
	return b.String()
}

// ---------- Figure 14: distribution of cheapest abstraction sizes ----------

// Figure14Row is one benchmark's histogram for the thread-escape client.
type Figure14Row struct {
	Name string
	// Hist[size] = number of proven queries whose cheapest abstraction maps
	// exactly `size` sites to L.
	Hist map[int]int
}

// Figure14 builds the histograms for the largest three benchmarks.
func Figure14(opts RunOptions) ([]Figure14Row, error) {
	suite := Suite()
	var rows []Figure14Row
	for _, cfg := range suite[len(suite)-3:] {
		b, err := Load(cfg)
		if err != nil {
			return nil, err
		}
		r, err := Run(b, Escape, opts)
		if err != nil {
			return nil, err
		}
		hist := map[int]int{}
		for _, o := range r.Outcomes {
			if o.Status == core.Proved {
				hist[o.AbsSize]++
			}
		}
		rows = append(rows, Figure14Row{Name: cfg.Name, Hist: hist})
	}
	return rows, nil
}

// RenderFigure14 renders the histograms.
func RenderFigure14(rows []Figure14Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 14. Distribution of cheapest abstraction sizes (thread-escape, largest three benchmarks).\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%s:\n", r.Name)
		var sizes []int
		for s := range r.Hist {
			sizes = append(sizes, s)
		}
		sort.Ints(sizes)
		for _, s := range sizes {
			fmt.Fprintf(&b, "  %3d L-mapped site(s): %4d queries  %s\n", s, r.Hist[s], strings.Repeat("#", r.Hist[s]))
		}
	}
	return b.String()
}

// ---------- Nullness: null-dereference precision and cost ----------

// NullnessRow summarizes the null-deref client on one benchmark: precision
// split plus iteration and per-query time statistics by resolution.
type NullnessRow struct {
	Name       string
	Queries    int
	Proven     int
	Impossible int
	Unresolved int

	ProvenIters, ImpossibleIters summary
	AbsSize                      summary
	ProvenMs, ImpossibleMs       msSummary
}

// NullnessTable runs the null-deref client over the whole suite.
func NullnessTable(opts RunOptions) ([]NullnessRow, error) {
	var rows []NullnessRow
	for _, cfg := range Suite() {
		b, err := Load(cfg)
		if err != nil {
			return nil, err
		}
		r, err := Run(b, Nullness, opts)
		if err != nil {
			return nil, err
		}
		rows = append(rows, NullnessRow{
			Name: cfg.Name, Queries: len(r.Outcomes),
			Proven: r.Proven(), Impossible: r.Impossible(), Unresolved: r.Unresolved(),
			ProvenIters:     summarize(iters(r, core.Proved)),
			ImpossibleIters: summarize(iters(r, core.Impossible)),
			AbsSize:         summarize(absSizes(r)),
			ProvenMs:        summarizeMs(timesMs(r, core.Proved)),
			ImpossibleMs:    summarizeMs(timesMs(r, core.Impossible)),
		})
	}
	return rows, nil
}

// RenderNullnessTable renders the null-deref experiment.
func RenderNullnessTable(rows []NullnessRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Null-deref client: precision, iterations, cheapest tracked-cell sets.\n")
	fmt.Fprintf(&b, "%-9s | %7s %6s %6s %6s | %-14s  %-14s | %-16s | %-19s  %-19s\n",
		"", "queries", "prov", "imposs", "unres",
		"proven iters", "imposs iters", "cells min max avg", "proven time", "imposs time")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-9s | %7d %6d %6d %6d | %-14s  %-14s | %-16s | %-19s  %-19s\n",
			r.Name, r.Queries, r.Proven, r.Impossible, r.Unresolved,
			r.ProvenIters, r.ImpossibleIters, r.AbsSize, r.ProvenMs, r.ImpossibleMs)
	}
	return b.String()
}
