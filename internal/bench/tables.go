package bench

import (
	"fmt"
	"sort"
	"strings"

	"tracer/internal/core"
)

// This file regenerates every table and figure of §6. Each experiment
// returns both structured rows (consumed by tests) and a rendered text
// table (printed by cmd/paperbench and the testing.B benchmarks). Figure 12,
// Tables 2–4 and Figure 14 solve nothing: they are functions of one
// RunSuite result, with one row per (program, client) run in its order.

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
			out = append(out, o.Abstraction.Len())
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

// Figure12 counts the verdicts of every (program, client) run of a suite run.
func Figure12(runs []*ClientResult) []Figure12Row {
	var rows []Figure12Row
	for _, r := range runs {
		rows = append(rows, Figure12Row{
			Name: r.Benchmark, Client: r.Client, Total: len(r.Outcomes),
			Proven: r.Proven(), Impossible: r.Impossible(), Unresolved: r.Unresolved(),
		})
	}
	return rows
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
			r, err := Run(b, Escape, o)
			if err != nil {
				return nil, err
			}
			totalIters := 0
			for _, o := range r.Outcomes {
				totalIters += o.Iterations
			}
			rows = append(rows, Figure13Row{Name: cfg.Name, K: k, WallMilli: r.WallMilli, Unresolved: r.Unresolved(), TotalIters: totalIters})
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

// Table2Row is one (benchmark, client) scalability summary: iterations and
// per-query running times, by resolution.
type Table2Row struct {
	Name                         string
	Client                       Client
	ProvenIters, ImpossibleIters summary
	ProvenMs, ImpossibleMs       msSummary
}

// Table2 gathers the iteration and running-time statistics of a suite run.
func Table2(runs []*ClientResult) []Table2Row {
	var rows []Table2Row
	for _, r := range runs {
		rows = append(rows, Table2Row{
			Name: r.Benchmark, Client: r.Client,
			ProvenIters:     summarize(iters(r, core.Proved)),
			ImpossibleIters: summarize(iters(r, core.Impossible)),
			ProvenMs:        summarizeMs(timesMs(r, core.Proved)),
			ImpossibleMs:    summarizeMs(timesMs(r, core.Impossible)),
		})
	}
	return rows
}

// RenderTable2 renders the scalability table.
func RenderTable2(rows []Table2Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 2. Scalability: iterations (min max avg) and per-query running times (min max avg).\n")
	fmt.Fprintf(&b, "%-9s %-13s | %-30s | %s\n", "", "client", "iterations", "running time")
	fmt.Fprintf(&b, "%-9s %-13s | %-14s  %-14s | %-19s  %s\n",
		"", "", "proven", "impossible", "proven", "impossible")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-9s %-13s | %-14s  %-14s | %-19s  %s\n",
			r.Name, r.Client, r.ProvenIters, r.ImpossibleIters, r.ProvenMs, r.ImpossibleMs)
	}
	return b.String()
}

// ---------- Table 3: cheapest abstraction sizes ----------

// Table3Row summarizes one (benchmark, client)'s cheapest-abstraction sizes
// for proven queries.
type Table3Row struct {
	Name   string
	Client Client
	Size   summary
}

// Table3 gathers the cheapest-abstraction sizes of a suite run.
func Table3(runs []*ClientResult) []Table3Row {
	var rows []Table3Row
	for _, r := range runs {
		rows = append(rows, Table3Row{Name: r.Benchmark, Client: r.Client, Size: summarize(absSizes(r))})
	}
	return rows
}

// RenderTable3 renders the cheapest-abstraction size table.
func RenderTable3(rows []Table3Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 3. Cheapest abstraction size for proven queries (min max avg).\n")
	fmt.Fprintf(&b, "%-9s %-13s | %s\n", "", "client", "size")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-9s %-13s | %s\n", r.Name, r.Client, r.Size)
	}
	return b.String()
}

// ---------- Table 4: cheapest abstraction reuse ----------

// Table4Row summarizes how many of one (benchmark, client)'s proven queries
// share a cheapest abstraction.
type Table4Row struct {
	Name      string
	Client    Client
	Groups    int
	GroupSize summary
}

func groupSizes(r *ClientResult) (int, summary) {
	counts := map[string]int{}
	for _, o := range r.Outcomes {
		if o.Status == core.Proved {
			counts[o.Abstraction.Key()]++
		}
	}
	var sizes []int
	for _, n := range counts {
		sizes = append(sizes, n)
	}
	sort.Ints(sizes)
	return len(counts), summarize(sizes)
}

// Table4 gathers the abstraction-reuse statistics of a suite run.
func Table4(runs []*ClientResult) []Table4Row {
	var rows []Table4Row
	for _, r := range runs {
		row := Table4Row{Name: r.Benchmark, Client: r.Client}
		row.Groups, row.GroupSize = groupSizes(r)
		rows = append(rows, row)
	}
	return rows
}

// RenderTable4 renders the reuse table.
func RenderTable4(rows []Table4Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 4. Cheapest abstraction reuse for proven queries (#groups; group size min max avg).\n")
	fmt.Fprintf(&b, "%-9s %-13s | %8s %s\n", "", "client", "#groups", "min max avg")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-9s %-13s | %8d %s\n", r.Name, r.Client, r.Groups, r.GroupSize)
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

// Figure14 builds the thread-escape histograms of the largest three
// benchmarks from a suite run.
func Figure14(runs []*ClientResult) []Figure14Row {
	suite := Suite()
	var rows []Figure14Row
	for _, cfg := range suite[len(suite)-3:] {
		for _, r := range runs {
			if r.Benchmark != cfg.Name || r.Client != Escape {
				continue
			}
			hist := map[int]int{}
			for _, o := range r.Outcomes {
				if o.Status == core.Proved {
					hist[o.Abstraction.Len()]++
				}
			}
			rows = append(rows, Figure14Row{Name: cfg.Name, Hist: hist})
		}
	}
	return rows
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
