package bench

import (
	"strings"
	"sync"
	"testing"
)

// quickOpts keeps the experiment tests fast: few queries, few iterations.
// The step quota, not a wall budget, bounds each query, so the outcomes do
// not depend on host load.
func quickOpts() RunOptions {
	return RunOptions{K: 5, MaxIters: 60, MaxQueries: 8, Workers: 4}
}

// quickSuite is one suite run at quickOpts, shared by the table tests.
var quickSuite = sync.OnceValues(func() ([]*ClientResult, error) { return RunSuite(quickOpts()) })

func quickRuns(t *testing.T) []*ClientResult {
	t.Helper()
	runs, err := quickSuite()
	if err != nil {
		t.Fatal(err)
	}
	return runs
}

func TestTable1Structure(t *testing.T) {
	rows, err := Table1()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(Suite()) {
		t.Fatalf("rows = %d", len(rows))
	}
	for i, r := range rows {
		if r.Name != Suite()[i].Name {
			t.Errorf("row %d name %s", i, r.Name)
		}
		if r.AppClasses > r.TotalClasses || r.AppMethods > r.TotalMethods || r.AppAtoms > r.TotalAtoms {
			t.Errorf("%s: app exceeds total: %+v", r.Name, r)
		}
		if r.Log2Typestate <= 0 || r.Log2Escape <= 0 || r.Log2Nullness <= 0 {
			t.Errorf("%s: empty abstraction family", r.Name)
		}
	}
	// avrora must be the largest benchmark in every size column.
	var avrora, largestAtoms Table1Row
	for _, r := range rows {
		if r.Name == "avrora" {
			avrora = r
		}
		if r.TotalAtoms > largestAtoms.TotalAtoms {
			largestAtoms = r
		}
	}
	if largestAtoms.Name != avrora.Name {
		t.Errorf("largest benchmark is %s, want avrora", largestAtoms.Name)
	}
	out := RenderTable1(rows)
	if !strings.Contains(out, "avrora") || !strings.Contains(out, "log2") {
		t.Errorf("render missing content:\n%s", out)
	}
}

// checkRowOrder requires a table built from the suite run to have one row
// per (program, client), in suite and registry order.
func checkRowOrder(t *testing.T, table string, n int, row func(i int) (string, Client)) {
	t.Helper()
	if want := len(Clients()) * len(Suite()); n != want {
		t.Fatalf("%s: %d rows, want %d", table, n, want)
	}
	for i := 0; i < n; i++ {
		name, cl := row(i)
		if wantName, wantCl := Suite()[i/len(Clients())].Name, Clients()[i%len(Clients())]; name != wantName || cl != wantCl {
			t.Errorf("%s row %d: %s/%s, want %s/%s", table, i, name, cl, wantName, wantCl)
		}
	}
}

func TestFigure12Structure(t *testing.T) {
	rows := Figure12(quickRuns(t))
	checkRowOrder(t, "fig12", len(rows), func(i int) (string, Client) { return rows[i].Name, rows[i].Client })
	resolved := map[Client]int{}
	for _, r := range rows {
		if r.Proven+r.Impossible+r.Unresolved != r.Total {
			t.Errorf("%s/%s: buckets %d+%d+%d ≠ %d", r.Name, r.Client, r.Proven, r.Impossible, r.Unresolved, r.Total)
		}
		if r.Total == 0 {
			t.Errorf("%s/%s: no queries", r.Name, r.Client)
		}
		resolved[r.Client] += r.Proven + r.Impossible
	}
	for _, cl := range Clients() {
		if resolved[cl] == 0 {
			t.Errorf("no %s query resolved anywhere in the suite", cl)
		}
	}
	out := RenderFigure12(rows)
	if !strings.Contains(out, "%") {
		t.Errorf("render missing percentages:\n%s", out)
	}
}

func TestFigure13Structure(t *testing.T) {
	rows, err := Figure13(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3*len(SmallSuite()) {
		t.Fatalf("rows = %d", len(rows))
	}
	ks := map[int]bool{}
	for _, r := range rows {
		ks[r.K] = true
		if r.TotalIters == 0 {
			t.Errorf("%s k=%d: zero iterations", r.Name, r.K)
		}
	}
	for _, k := range []int{1, 5, 10} {
		if !ks[k] {
			t.Errorf("missing k=%d", k)
		}
	}
}

func TestTables234Structure(t *testing.T) {
	runs := quickRuns(t)
	fig12, t2, t3, t4 := Figure12(runs), Table2(runs), Table3(runs), Table4(runs)
	checkRowOrder(t, "table2", len(t2), func(i int) (string, Client) { return t2[i].Name, t2[i].Client })
	checkRowOrder(t, "table3", len(t3), func(i int) (string, Client) { return t3[i].Name, t3[i].Client })
	checkRowOrder(t, "table4", len(t4), func(i int) (string, Client) { return t4[i].Name, t4[i].Client })
	for i, f := range fig12 {
		if n := t2[i].ProvenIters.N + t2[i].ImpossibleIters.N; n != f.Proven+f.Impossible {
			t.Errorf("%s/%s: %d iteration counts for %d resolved queries", f.Name, f.Client, n, f.Proven+f.Impossible)
		}
		if t2[i].ProvenIters.N > 0 && t2[i].ProvenIters.Min > t2[i].ProvenIters.Max {
			t.Errorf("%s/%s: min > max", f.Name, f.Client)
		}
		if t3[i].Size.N != f.Proven {
			t.Errorf("%s/%s: %d abstraction sizes for %d proven queries", f.Name, f.Client, t3[i].Size.N, f.Proven)
		}
		if t3[i].Size.N > 0 && t3[i].Size.Min < 0 {
			t.Errorf("%s/%s: negative abstraction size", f.Name, f.Client)
		}
		// Every proven query is in one group, so groups cannot outnumber
		// proven queries.
		if t4[i].GroupSize.N != t4[i].Groups || t4[i].Groups > f.Proven {
			t.Errorf("%s/%s: %d groups (summary over %d) for %d proven queries", f.Name, f.Client, t4[i].Groups, t4[i].GroupSize.N, f.Proven)
		}
	}
	for _, s := range []string{RenderTable2(t2), RenderTable3(t3), RenderTable4(t4)} {
		if !strings.Contains(s, "tsp") || !strings.Contains(s, string(Nullness)) {
			t.Error("render missing benchmark or client rows")
		}
	}
}

func TestFigure14Structure(t *testing.T) {
	rows := Figure14(quickRuns(t))
	if len(rows) != 3 {
		t.Fatalf("rows = %d, want 3 (largest three benchmarks)", len(rows))
	}
	suite := Suite()
	for i, r := range rows {
		if r.Name != suite[len(suite)-3+i].Name {
			t.Errorf("row %d = %s", i, r.Name)
		}
		for size, n := range r.Hist {
			if size < 1 || n < 1 {
				t.Errorf("%s: bad histogram entry %d→%d", r.Name, size, n)
			}
		}
	}
	_ = RenderFigure14(rows)
}

// TestSummaryHelpers covers the statistics plumbing.
func TestSummaryHelpers(t *testing.T) {
	s := summarize([]int{3, 1, 2})
	if s.Min != 1 || s.Max != 3 || s.Avg != 2 || s.N != 3 {
		t.Fatalf("summarize = %+v", s)
	}
	if summarize(nil).N != 0 {
		t.Fatal("empty summarize")
	}
	ms := summarizeMs([]float64{10, 20})
	if ms.Min != 10 || ms.Max != 20 || ms.Avg != 15 {
		t.Fatalf("summarizeMs = %+v", ms)
	}
	for in, want := range map[float64]string{500: "500ms", 1500: "1.5s", 90000: "1.5m"} {
		if got := fmtMs(in); got != want {
			t.Errorf("fmtMs(%v) = %q, want %q", in, got, want)
		}
	}
}
