package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"testing"

	"tracer/internal/core"
)

// tspJobs loads the smallest suite member, keeping the tests within the
// race-detector gate.
func tspJobs(t *testing.T) []*job {
	t.Helper()
	progs := suiteSources("tsp")
	if err := load(progs); err != nil {
		t.Fatal(err)
	}
	return jobsOf(progs)
}

func testGolden(t *testing.T) golden {
	t.Helper()
	g, err := parseGolden(goldenTSV)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestMetricDefinitions checks that every metric has a valid name, a unit
// and a direction, and that BENCHMARK.json lists exactly the workloads and
// metrics this program prints.
func TestMetricDefinitions(t *testing.T) {
	seen := map[string]bool{}
	for _, m := range append(append([]metric(nil), endToEnd...), perLayer...) {
		if !nameRE.MatchString(m.name) || seen[m.name] {
			t.Errorf("metric %q: invalid or duplicate name", m.name)
		}
		seen[m.name] = true
		if !unitRE.MatchString(m.unit) {
			t.Errorf("metric %q: invalid unit %q", m.name, m.unit)
		}
		if m.better != "higher" && m.better != "lower" {
			t.Errorf("metric %q: direction %q", m.name, m.better)
		}
		if m.bound < 0 || m.bound > 0.25 {
			t.Errorf("metric %q: bound %v outside [0, 0.25]", m.name, m.bound)
		}
	}
	for name := range deterministic {
		if !seen[name] {
			t.Errorf("deterministic metric %q is not defined", name)
		}
	}

	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type jsonMetric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var bj struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []jsonMetric            `json:"end_to_end"`
		PerLayer  []jsonMetric            `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, program has %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range bj.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloads[i].name)
		}
	}
	same := func(kind string, got []jsonMetric, want []metric, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, program %d", kind, len(got), len(want))
		}
		for i, m := range want {
			g := got[i]
			if g.Name != m.name || g.Unit != m.unit || g.Better != m.better ||
				bounded != (g.Bound != nil) || bounded && *g.Bound != m.bound {
				t.Errorf("%s %d: BENCHMARK.json %+v, program %+v", kind, i, g, m)
			}
		}
	}
	same("end_to_end", bj.EndToEnd, endToEnd, true)
	same("per_layer", bj.PerLayer, perLayer, false)
}

// TestLayersReconcile checks that a query's forward, backward and
// loop.other_ms times add up to its Solve wall, and that the traced sweep
// matches the golden table.
func TestLayersReconcile(t *testing.T) {
	g := testGolden(t)
	tr := newTracer()
	tl := &tally{}
	for _, j := range tspJobs(t) {
		outs, err := sweepJob(j, tr, tl, identity(len(j.keys)))
		if err != nil {
			t.Fatal(err)
		}
		tl.check(g, outs)
	}
	tl.passMS = []float64{1}
	if tl.failed != 0 || tl.quotaTrips != 0 || tl.decided == 0 {
		t.Fatalf("tally %+v: want decided verdicts, no failures or quota trips", tl)
	}
	var solveMS float64
	for _, s := range tr.spans {
		if s.Name == "solve" {
			solveMS += float64(s.dur()) / 1e6
		}
	}
	v := layerValues(tr, tl, tl)
	sum := v["forward.ms"] + v["backward.ms"] + v["loop.other_ms"]
	if math.Abs(sum-solveMS) > 1e-6*solveMS {
		t.Errorf("forward %.3f + backward %.3f + other %.3f = %.3f ms, Solve wall %.3f ms",
			v["forward.ms"], v["backward.ms"], v["loop.other_ms"], sum, solveMS)
	}
	if v["forward.calls"] != v["core.iterations"] {
		t.Errorf("forward.calls %v != core.iterations %v", v["forward.calls"], v["core.iterations"])
	}
	if v["minsat.search_nodes"] == 0 || v["minsat.ms"] <= 0 {
		t.Errorf("minsat timer not read: %v nodes, %v ms", v["minsat.search_nodes"], v["minsat.ms"])
	}
}

// TestTracedMatchesUntraced checks that the timing wrappers change no
// Result and no BatchStats, and that they expose exactly the optional
// interfaces of what they wrap.
func TestTracedMatchesUntraced(t *testing.T) {
	resumes := 0
	for _, j := range tspJobs(t) {
		for i := range j.keys {
			plain, err := core.Solve(j.spec.Job(j.prog.prog, i, beamK), solveOpts(nil))
			if err != nil {
				t.Fatal(err)
			}
			tr := newTracer()
			traced, err := core.Solve(tr.wrapProblem(j.spec.Job(j.prog.prog, i, beamK), j.spec.Name, 0), solveOpts(tr))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(plain, traced) {
				t.Errorf("%s query %d: untraced %+v, traced %+v", j.spec.Name, i, plain, traced)
			}
		}
		bp := j.spec.Batch(j.prog.prog, identity(len(j.keys)), beamK)
		wrapped := newTracer().wrapBatch(bp, j.spec.Name, 0)
		for _, probe := range []struct {
			name       string
			inner, out bool
		}{
			{"DeltaBatchProblem", implements[core.DeltaBatchProblem](bp), implements[core.DeltaBatchProblem](wrapped)},
			{"ObsFlusher", implements[core.ObsFlusher](bp), implements[core.ObsFlusher](wrapped)},
		} {
			if probe.inner != probe.out {
				t.Errorf("%s batch: wrapped implements %s = %t, inner %t", j.spec.Name, probe.name, probe.out, probe.inner)
			}
		}
		plainOuts, plainStats, err := batchJob(j, nil, batchWorkers)
		if err != nil {
			t.Fatal(err)
		}
		tracedOuts, tracedStats, err := batchJob(j, newTracer(), batchWorkers)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(plainOuts, tracedOuts) || plainStats != tracedStats {
			t.Errorf("%s batch: untraced %+v, traced %+v", j.spec.Name, plainStats, tracedStats)
		}
		resumes += plainStats.DeltaResumes
	}
	if resumes == 0 {
		t.Error("no batch resumed a donor run; the delta path went untested")
	}
}

func implements[I any](x any) bool {
	_, ok := x.(I)
	return ok
}

// TestCorruptGoldenFails checks that a wrong golden row fails the run.
func TestCorruptGoldenFails(t *testing.T) {
	g := testGolden(t)
	j := tspJobs(t)[0]
	outs, _, err := batchJob(j, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	clean := &tally{}
	clean.check(g, outs)
	if clean.failed != 0 {
		t.Fatalf("%d of %d verdicts failed against the committed table", clean.failed, clean.attempted)
	}
	for _, o := range outs {
		if o.v.decided() {
			want := g[o.key]
			want.cost++
			g[o.key] = want
			break
		}
	}
	corrupt := &tally{}
	corrupt.check(g, outs)
	if corrupt.failed == 0 {
		t.Error("a corrupted golden row went unnoticed")
	}
}

// TestServeSmall replays 20 requests through an in-process tracerd.
func TestServeSmall(t *testing.T) {
	g := testGolden(t)
	svc, err := startService()
	if err != nil {
		t.Fatal(err)
	}
	defer svc.close()
	reqs, err := requestsOf(tspJobs(t))
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer()
	tl := &tally{}
	tl.check(g, svc.replay(reqs, perm(1, 0, 0, len(reqs))[:20], tr, tl))
	if tl.attempted != 20 || tl.failed != 0 || len(tl.latencyMS) != 20 {
		t.Errorf("tally %+v: want 20 attempted, none failed", tl)
	}
	if len(tr.server) != 20 {
		t.Errorf("%d server timing samples, want 20", len(tr.server))
	}
}

func TestUnion(t *testing.T) {
	spans := []span{{Start: 5, End: 8}, {Start: 0, End: 3}, {Start: 2, End: 4}, {Start: 6, End: 7}}
	if got := union(spans); got != 7 {
		t.Errorf("union = %d, want 7", got)
	}
}

func TestQuartiles(t *testing.T) {
	// Expected values are Python's statistics.quantiles(xs, n=4).
	for _, tc := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{2, 1}, [3]float64{0.75, 1.5, 2.25}},
	} {
		q1, q2, q3 := quartiles(tc.xs)
		if [3]float64{q1, q2, q3} != tc.want {
			t.Errorf("quartiles(%v) = %v %v %v, want %v", tc.xs, q1, q2, q3, tc.want)
		}
	}
}

func TestJudge(t *testing.T) {
	qps, _, _ := metricDef("qps")
	parent := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(by float64) []float64 {
		out := make([]float64, len(parent))
		for i, x := range parent {
			out[i] = x + by
		}
		return out
	}
	for _, tc := range []struct {
		change []float64
		want   string
		bad    bool
	}{
		{shift(20), "gain", false},
		{shift(-40), "REGRESSION (40.0% worse, bound 25.0%)", true},
		{shift(-10), "within bound", false},
	} {
		if got, bad := judge(qps, true, parent, tc.change); got != tc.want || bad != tc.bad {
			t.Errorf("judge(%v) = %q, %t; want %q, %t", tc.change, got, bad, tc.want, tc.bad)
		}
	}
	wide := []float64{50, 150, 60, 140, 100, 100, 70, 130, 80, 120}
	if got, _ := judge(qps, true, wide, shift(-40)); got[:10] != "unresolved" {
		t.Errorf("wide parent: %q, want unresolved", got)
	}
	steps, _, _ := metricDef("forward.steps")
	if _, bad := judge(steps, false, []float64{5, 5}, []float64{5, 6}); !bad {
		t.Error("differing deterministic counts were not flagged")
	}
}
