package main

import (
	"math"
	"sort"
	"syscall"
)

// metric is one reported metric. bound, for end-to-end metrics only, is the
// share of the parent's median by which the metric may worsen before a
// change counts as a regression.
type metric struct {
	name, unit, better string
	bound              float64
}

// endToEnd are the metrics a user of the solver sees, printed by untraced
// runs. See README.md for what each means on each workload.
var endToEnd = []metric{
	{"setup_s", "s", "lower", 0.25},
	{"qps", "1/s", "higher", 0.25},
	{"latency_ms.p50", "ms", "lower", 0.25},
	{"latency_ms.p99", "ms", "lower", 0.25},
	{"job_ms.p50", "ms", "lower", 0.25},
	{"job_ms.p75", "ms", "lower", 0.25},
	{"decided_frac", "ratio", "higher", 0.001},
}

// perLayer are the per-layer metrics, printed by traced runs. Sums of times
// and counts are per pass.
var perLayer = []metric{
	{name: "frontend.parse_ms", unit: "ms", better: "lower"},
	{name: "frontend.prepare_ms", unit: "ms", better: "lower"},
	{name: "forward.ms", unit: "ms", better: "lower"},
	{name: "forward.ms.typestate", unit: "ms", better: "lower"},
	{name: "forward.ms.escape", unit: "ms", better: "lower"},
	{name: "forward.ms.nullness", unit: "ms", better: "lower"},
	{name: "forward.calls", unit: "count", better: "lower"},
	{name: "forward.steps", unit: "count", better: "lower"},
	{name: "forward.reused", unit: "count", better: "higher"},
	{name: "backward.ms", unit: "ms", better: "lower"},
	{name: "backward.ms.typestate", unit: "ms", better: "lower"},
	{name: "backward.ms.escape", unit: "ms", better: "lower"},
	{name: "backward.ms.nullness", unit: "ms", better: "lower"},
	{name: "backward.calls", unit: "count", better: "lower"},
	{name: "backward.cubes", unit: "count", better: "lower"},
	{name: "loop.other_ms", unit: "ms", better: "lower"},
	{name: "loop.other_ms.typestate", unit: "ms", better: "lower"},
	{name: "loop.other_ms.escape", unit: "ms", better: "lower"},
	{name: "loop.other_ms.nullness", unit: "ms", better: "lower"},
	{name: "minsat.ms", unit: "ms", better: "lower"},
	{name: "minsat.search_nodes", unit: "count", better: "lower"},
	{name: "core.iterations", unit: "count", better: "lower"},
	{name: "core.clauses", unit: "count", better: "lower"},
	{name: "core.quota_trips", unit: "count", better: "lower"},
	{name: "batch.self_ms", unit: "ms", better: "lower"},
	{name: "batch.check_ms", unit: "ms", better: "lower"},
	{name: "batch.forward_runs", unit: "count", better: "lower"},
	{name: "batch.fwd_hit_frac", unit: "ratio", better: "higher"},
	{name: "batch.delta_resumes", unit: "count", better: "higher"},
	{name: "batch.rounds", unit: "count", better: "lower"},
	{name: "batch.peak_groups", unit: "count", better: "lower"},
	{name: "warm.session_ms", unit: "ms", better: "lower"},
	{name: "warm.seed_ms", unit: "ms", better: "lower"},
	{name: "warm.record_ms", unit: "ms", better: "lower"},
	{name: "warm.save_ms", unit: "ms", better: "lower"},
	{name: "warm.seeded_cubes", unit: "count", better: "higher"},
	{name: "warm.replay_frac", unit: "ratio", better: "higher"},
	{name: "warm.one_iter_frac", unit: "ratio", better: "higher"},
	{name: "server.decode_ms.p50", unit: "ms", better: "lower"},
	{name: "server.queue_ms.p50", unit: "ms", better: "lower"},
	{name: "server.queue_ms.p99", unit: "ms", better: "lower"},
	{name: "server.solve_ms.p50", unit: "ms", better: "lower"},
	{name: "server.solve_ms.p99", unit: "ms", better: "lower"},
	{name: "server.batch_size.mean", unit: "count", better: "higher"},
	{name: "server.coalesced_frac", unit: "ratio", better: "higher"},
	{name: "server.client_ms.p50", unit: "ms", better: "lower"},
	{name: "trace.overhead_frac", unit: "ratio", better: "lower"},
	// Peak RSS varies with garbage-collection timing by more than 10% on
	// the serve workload, too much for an end-to-end bound.
	{name: "peak_rss_mb", unit: "MB", better: "lower"},
}

// deterministic names the metrics that repeat exactly across runs of one
// commit on one workload; compare flags any that do not.
var deterministic = map[string]bool{
	"decided_frac":        true,
	"forward.calls":       true,
	"forward.steps":       true,
	"forward.reused":      true,
	"backward.calls":      true,
	"backward.cubes":      true,
	"minsat.search_nodes": true,
	"core.iterations":     true,
	"core.clauses":        true,
	"core.quota_trips":    true,
	"batch.forward_runs":  true,
	"batch.fwd_hit_frac":  true,
	"batch.delta_resumes": true,
	"batch.rounds":        true,
	"batch.peak_groups":   true,
	"warm.seeded_cubes":   true,
	"warm.replay_frac":    true,
	"warm.one_iter_frac":  true,
}

// quantile is the q-quantile of xs by linear interpolation between closest
// ranks; 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// endToEndValues derives the end-to-end metrics of an untraced run.
func endToEndValues(setupS []float64, tl *tally) map[string]float64 {
	return map[string]float64{
		"setup_s":        quantile(setupS, 0.5),
		"qps":            float64(tl.attempted) / sum(tl.passMS) * 1000,
		"latency_ms.p50": quantile(tl.latencyMS, 0.50),
		"latency_ms.p99": quantile(tl.latencyMS, 0.99),
		"job_ms.p50":     quantile(tl.jobMS, 0.50),
		"job_ms.p75":     quantile(tl.jobMS, 0.75),
		"decided_frac":   float64(tl.decided) / float64(tl.attempted),
	}
}

// union is the total length of the union of the spans' intervals.
func union(spans []span) int64 {
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	var total, curStart, curEnd int64
	open := false
	for _, s := range spans {
		if open && s.Start <= curEnd {
			if s.End > curEnd {
				curEnd = s.End
			}
			continue
		}
		if open {
			total += curEnd - curStart
		}
		curStart, curEnd, open = s.Start, s.End, true
	}
	if open {
		total += curEnd - curStart
	}
	return total
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// layerValues derives the per-layer metrics of a traced run from its spans
// and counts. traced and plain are the run's traced and untraced passes,
// which did identical work.
func layerValues(t *tracer, traced, plain *tally) map[string]float64 {
	v := map[string]float64{}
	for _, m := range perLayer {
		v[m.name] = 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	msOf := func(ns int64) float64 { return float64(ns) / 1e6 }
	for _, s := range t.spans {
		d := msOf(s.dur())
		switch s.Name {
		case "parse":
			v["frontend.parse_ms"] += d
		case "prepare":
			v["frontend.prepare_ms"] += d
		case "forward":
			v["forward.ms"] += d
			v["forward.ms."+s.Client] += d
			v["forward.calls"]++
		case "backward":
			v["backward.ms"] += d
			v["backward.ms."+s.Client] += d
			v["backward.calls"]++
			v["backward.cubes"] += float64(s.N)
		case "check":
			v["batch.check_ms"] += d
		case "solve":
			// Everything a Solve call does outside its child spans is the
			// loop's own work: minimum search, learning, bookkeeping.
			other := s.dur()
			for _, c := range children[s.ID] {
				other -= c.dur()
			}
			v["loop.other_ms"] += msOf(other)
			v["loop.other_ms."+s.Client] += msOf(other)
		case "batch":
			// Children overlap across workers; subtract their union.
			v["batch.self_ms"] += msOf(s.dur() - union(children[s.ID]))
		case "warm.session", "warm.seed", "warm.record", "warm.save":
			v[s.Name+"_ms"] += d
		}
	}
	c := t.counts
	v["forward.steps"] = float64(c["forward.steps"])
	v["forward.reused"] = float64(c["forward.reused"])
	v["minsat.ms"] = msOf(c["minsat.ns"])
	v["minsat.search_nodes"] = float64(c["minsat.search_nodes"])
	v["core.iterations"] = float64(c["core.iterations"])
	v["core.clauses"] = float64(c["core.clauses"])
	v["core.quota_trips"] = float64(traced.quotaTrips)
	v["batch.forward_runs"] = float64(c["batch.forward_runs"])
	v["batch.delta_resumes"] = float64(c["batch.delta_resumes"])
	v["batch.rounds"] = float64(c["batch.rounds"])
	v["warm.seeded_cubes"] = float64(c["warm.seeded_cubes"])
	// Every sum so far covers all traced passes; report it per pass.
	if n := len(traced.passMS); n > 0 {
		for name := range v {
			v[name] /= float64(n)
		}
	}
	v["batch.peak_groups"] = float64(c["batch.peak_groups"])
	v["batch.fwd_hit_frac"] = ratio(float64(c["batch.fwd_hits"]), float64(c["batch.fwd_hits"]+c["batch.fwd_misses"]))
	v["warm.replay_frac"] = ratio(float64(c["warm.replays"]), float64(c["warm.queries"]))
	v["warm.one_iter_frac"] = ratio(float64(c["warm.one_iter"]), float64(c["warm.seeded_queries"]))

	var decode, queue, solve, client, size []float64
	coalesced := 0
	for _, s := range t.server {
		decode = append(decode, msOf(s.decodeNS))
		queue = append(queue, msOf(s.queueNS))
		solve = append(solve, msOf(s.solveNS))
		client = append(client, msOf(s.latencyNS-s.totalNS))
		size = append(size, float64(s.batchSize))
		if s.coalesced {
			coalesced++
		}
	}
	v["server.decode_ms.p50"] = quantile(decode, 0.5)
	v["server.queue_ms.p50"] = quantile(queue, 0.5)
	v["server.queue_ms.p99"] = quantile(queue, 0.99)
	v["server.solve_ms.p50"] = quantile(solve, 0.5)
	v["server.solve_ms.p99"] = quantile(solve, 0.99)
	v["server.client_ms.p50"] = quantile(client, 0.5)
	v["server.batch_size.mean"] = ratio(sum(size), float64(len(size)))
	v["server.coalesced_frac"] = ratio(float64(coalesced), float64(len(size)))
	// Traced and untraced passes alternate over identical work.
	v["trace.overhead_frac"] = ratio(sum(traced.passMS)/float64(len(traced.passMS)),
		sum(plain.passMS)/float64(len(plain.passMS))) - 1
	v["peak_rss_mb"] = peakRSSMB()
	return v
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}
