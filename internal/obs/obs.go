// Package obs is the observability layer of the TRACER loop: a
// zero-dependency, low-overhead subsystem for structured event tracing,
// metrics, and timing.
//
// The central type is Recorder, a sink for three kinds of telemetry:
//
//   - Events: a structured stream mirroring the phases of Algorithm 1
//     (IterStart, ForwardDone, BackwardDone, ClauseLearned, GroupSplit,
//     QueryResolved), each carrying abstraction size, step counts, clause
//     counts, and wall time. Per-query event totals reconcile exactly with
//     core.Result and core.BatchStats counters.
//   - Counters and gauges: named monotonic sums (rhs.path_edges,
//     minsat.search_nodes) and high-water marks (rhs.worklist_peak).
//   - Timings: named duration distributions (minsat.minimum, rhs.solve).
//
// Implementations: Nop (the default — all instrumented code paths guard on
// Enabled, so the uninstrumented cost is a single interface call), Agg (an
// aggregating in-memory sink), NDJSON (one JSON object per line to an
// io.Writer), Capture (an in-memory event list, for tests), and Multi
// (fan-out). Tag wraps a Recorder so every event is stamped with a query
// identifier, and Retag renames a batch's per-query tags.
//
// All sinks are safe for concurrent use; the bench harness records from a
// worker pool.
package obs

import (
	"strconv"
	"time"
)

// EventKind names a phase of the TRACER loop (or a metric record in an
// NDJSON stream, where counters and timings appear inline).
type EventKind string

const (
	// IterStart opens one CEGAR iteration: a minimum abstraction has been
	// chosen (AbsSize = |p|) against the current clause set (Clauses).
	IterStart EventKind = "iter_start"
	// ForwardDone closes one forward analysis run (Steps, WallNS). In batch
	// mode Queries is the number of queries sharing the run.
	ForwardDone EventKind = "forward_done"
	// BackwardDone closes one backward meta-analysis run (Cubes, WallNS).
	BackwardDone EventKind = "backward_done"
	// ClauseLearned records a blocking clause actually added (not a
	// duplicate); Clauses is the running deduplicated total.
	ClauseLearned EventKind = "clause_learned"
	// ClauseRejected records a broken cube returned by the backward
	// meta-analysis: one whose Pos and Neg overlap, so it describes no
	// abstraction at all and its blocking clause would canonicalize to a
	// tautology silently dropped by minsat.Solver.Add. Name carries the
	// cube's rendering. A rejected cube indicates an unsound backward
	// transfer function; if no other cube of the pass eliminates the
	// current abstraction the query resolves failed with a diagnostic
	// naming the cubes.
	ClauseRejected EventKind = "clause_rejected"
	// GroupSplit records a query group splitting into several successor
	// groups in SolveBatch (Groups = live groups after redistribution,
	// Queries = successor groups born from this split).
	GroupSplit EventKind = "group_split"
	// QueryResolved closes a query: Status is
	// proved/impossible/exhausted/failed, and Iter, Clauses, Steps, WallNS
	// are the query's final totals, matching the core.Result counters
	// exactly. Every query, even one ending in a budget trip, a recovered
	// panic, or a no-progress error, gets exactly one QueryResolved.
	QueryResolved EventKind = "query_resolved"
	// PanicRecovered records a panic caught by the solver and converted
	// into a Failed resolution. Name carries the recovered value's message;
	// in batch mode Query is set when the panic was confined to one query's
	// backward unit. Stack traces are kept out of the event stream (they
	// embed goroutine IDs, which would break cross-worker-count
	// determinism) and live in core.Result.Stack instead.
	PanicRecovered EventKind = "panic_recovered"
	// BudgetTrip records the first budget trip of a solve (Name = the
	// budget.Cause string: canceled|deadline|steps|injected|space). Emitted
	// once, just before the tripped queries resolve as exhausted.
	BudgetTrip EventKind = "budget_trip"
	// WarmSeed records blocking clauses seeded into a solve before
	// iteration 1 from a warm-start store (Clauses = clauses genuinely
	// added after dedup; Query set in batch mode). Emitted at most once per
	// query, and only when at least one seed clause was offered.
	WarmSeed EventKind = "warm_seed"
	// RequestAccepted opens one solver-daemon request's access-log stream
	// (Query = the server-assigned request id, Name = the coalescing
	// compatibility key). The stream continues with the solver's per-query
	// events, re-tagged from batch indices to request ids, and terminates
	// with exactly one QueryResolved whose totals match the HTTP response.
	RequestAccepted EventKind = "request_accepted"
	// RequestRejected records a request turned away at admission (Query =
	// request id, Name = reason: bad_request|queue_full|quota|draining,
	// Status = the HTTP status sent). A rejected request has no further
	// events.
	RequestRejected EventKind = "request_rejected"

	// CounterKind, GaugeKind, and TimingKind are how Count/Gauge/Timing
	// records appear when serialized into an NDJSON event stream.
	CounterKind EventKind = "counter"
	GaugeKind   EventKind = "gauge"
	TimingKind  EventKind = "timing"
)

// Event is one record of the structured stream. Zero-valued fields are
// omitted from JSON, so each kind serializes only what it carries.
type Event struct {
	Kind  EventKind `json:"kind"`
	Query string    `json:"query,omitempty"` // query identifier (Tag, or batch index)
	Iter  int       `json:"iter,omitempty"`  // 1-based CEGAR iteration / forward-run ordinal

	AbsSize int `json:"abs_size,omitempty"` // |p| of the abstraction tried
	Steps   int `json:"steps,omitempty"`    // forward solver steps
	Clauses int `json:"clauses,omitempty"`  // learned blocking clauses (deduplicated)
	Cubes   int `json:"cubes,omitempty"`    // cubes returned by one backward run
	Groups  int `json:"groups,omitempty"`   // live query groups (batch mode)
	Queries int `json:"queries,omitempty"`  // queries sharing a run / born groups
	Reused  int `json:"reused,omitempty"`   // ForwardDone: path edges served by the delta path

	Status string `json:"status,omitempty"`  // QueryResolved: proved|impossible|exhausted|failed
	WallNS int64  `json:"wall_ns,omitempty"` // wall time of the phase

	// Name and Value carry Count/Gauge/Timing records through an NDJSON
	// stream (Kind = counter|gauge|timing; timings use WallNS).
	Name  string `json:"name,omitempty"`
	Value int64  `json:"value,omitempty"`
}

// Recorder is the sink threaded through the solver stack. Implementations
// must be safe for concurrent use.
type Recorder interface {
	// Enabled reports whether records are consumed at all; hot paths guard
	// event construction and time.Now calls on it.
	Enabled() bool
	// Record consumes one structured event.
	Record(e Event)
	// Count adds delta to the named monotonic counter.
	Count(name string, delta int64)
	// Gauge records an observation of a high-water metric; sinks keep the
	// maximum seen.
	Gauge(name string, v int64)
	// Timing records one duration observation of the named timer.
	Timing(name string, d time.Duration)
}

// Nop is the default Recorder: it drops everything and reports disabled.
type Nop struct{}

func (Nop) Enabled() bool                { return false }
func (Nop) Record(Event)                 {}
func (Nop) Count(string, int64)          {}
func (Nop) Gauge(string, int64)          {}
func (Nop) Timing(string, time.Duration) {}

// Default normalizes a possibly-nil Recorder to a usable one.
func Default(r Recorder) Recorder {
	if r == nil {
		return Nop{}
	}
	return r
}

// Tag returns a Recorder that stamps query on every event that does not
// already carry a query identifier. Tagging a nil or disabled Recorder
// returns Nop, so the no-op fast path is preserved.
func Tag(r Recorder, query string) Recorder { return Retag(r, nil, query) }

// Retag returns a Recorder that renames the query tags of core.SolveBatch's
// events: an event tagged with batch index i gets ids[i], and an event
// without a query (a group-level event) gets group; any other tag passes
// through. core.Solve maps its one query's tag back to untagged with it,
// and the solver daemon names each request's events. Retagging a nil or
// disabled Recorder returns Nop.
func Retag(r Recorder, ids []string, group string) Recorder {
	if r == nil || !r.Enabled() {
		return Nop{}
	}
	return retagger{r: r, ids: ids, group: group}
}

type retagger struct {
	r     Recorder
	ids   []string
	group string
}

func (t retagger) Enabled() bool { return true }
func (t retagger) Record(e Event) {
	if e.Query == "" {
		e.Query = t.group
	} else if i, err := strconv.Atoi(e.Query); err == nil && i >= 0 && i < len(t.ids) {
		e.Query = t.ids[i]
	}
	t.r.Record(e)
}
func (t retagger) Count(name string, delta int64)      { t.r.Count(name, delta) }
func (t retagger) Gauge(name string, v int64)          { t.r.Gauge(name, v) }
func (t retagger) Timing(name string, d time.Duration) { t.r.Timing(name, d) }

// multi fans records out to several sinks.
type multi []Recorder

// Multi returns a Recorder forwarding to every non-nil, enabled sink. With
// no usable sinks it returns Nop.
func Multi(rs ...Recorder) Recorder {
	var out multi
	for _, r := range rs {
		if r != nil && r.Enabled() {
			out = append(out, r)
		}
	}
	switch len(out) {
	case 0:
		return Nop{}
	case 1:
		return out[0]
	}
	return out
}

func (m multi) Enabled() bool { return true }
func (m multi) Record(e Event) {
	for _, r := range m {
		r.Record(e)
	}
}
func (m multi) Count(name string, delta int64) {
	for _, r := range m {
		r.Count(name, delta)
	}
}
func (m multi) Gauge(name string, v int64) {
	for _, r := range m {
		r.Gauge(name, v)
	}
}
func (m multi) Timing(name string, d time.Duration) {
	for _, r := range m {
		r.Timing(name, d)
	}
}
