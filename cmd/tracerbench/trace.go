package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"

	"tracer/internal/budget"
	"tracer/internal/core"
	"tracer/internal/lang"
	"tracer/internal/obs"
	"tracer/internal/uset"
)

// span is one timed call into a layer, recorded from the benchmark's side of
// the layer's public functions. Spans of one solve or batch share their
// parent; Parent 0 marks a root.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Client string `json:"client,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// N is the span's work count: steps of a forward run, cubes of a
	// backward pass, seeded cubes of a warm-store lookup.
	N int64 `json:"n,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// serverSample is the timing block of one tracerd response, with the
// latency the client observed.
type serverSample struct {
	decodeNS, queueNS, solveNS, totalNS, latencyNS int64
	batchSize                                      int
	coalesced                                      bool
}

// tracer records spans and counts in memory. A nil *tracer is the untraced
// mode: every method is a no-op and wrap* return their argument unchanged,
// so untraced runs call the layers directly.
type tracer struct {
	t0 time.Time

	mu     sync.Mutex
	spans  []span
	counts map[string]int64
	server []serverSample
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), counts: map[string]int64{}}
}

// begin opens a span and returns its id.
func (t *tracer) begin(name, client string, parent int) int {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Client: client, Start: now})
	return id
}

// end closes span id, attaching its work count.
func (t *tracer) end(id int, n int64) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = now
	t.spans[id-1].N = n
}

// count adds n to a named count.
func (t *tracer) count(name string, n int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.counts[name] += n
}

// peak raises a named count to at least n.
func (t *tracer) peak(name string, n int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if n > t.counts[name] {
		t.counts[name] = n
	}
}

func (t *tracer) serverSample(s serverSample) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.server = append(t.server, s)
}

// recorder returns the obs.Recorder handed to core.Options: it keeps the
// minimum-model solver's minsat.minimum timer and search-node count, and
// drops everything else. nil when untraced.
func (t *tracer) recorder() obs.Recorder {
	if t == nil {
		return nil
	}
	return minsatRecorder{t}
}

type minsatRecorder struct{ t *tracer }

func (r minsatRecorder) Enabled() bool       { return true }
func (r minsatRecorder) Record(obs.Event)    {}
func (r minsatRecorder) Gauge(string, int64) {}
func (r minsatRecorder) Count(name string, delta int64) {
	if name == obs.MinsatSearchNodes {
		r.t.count("minsat.search_nodes", delta)
	}
}
func (r minsatRecorder) Timing(name string, d time.Duration) {
	if name == obs.MinsatMinimum {
		r.t.count("minsat.ns", int64(d))
	}
}

// writeSpans saves every recorded span as a JSON array.
func (t *tracer) writeSpans(path string) error {
	t.mu.Lock()
	data, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// tracedProblem times the forward and backward phases of one query.
type tracedProblem struct {
	core.Problem
	t      *tracer
	client string
	parent int
}

func (p *tracedProblem) Forward(b *budget.Budget, s uset.Set) core.Outcome {
	id := p.t.begin("forward", p.client, p.parent)
	out := p.Problem.Forward(b, s)
	p.t.end(id, int64(out.Steps))
	p.t.count("forward.steps", int64(out.Steps))
	p.t.count("forward.reused", int64(out.Reused))
	return out
}

func (p *tracedProblem) Backward(b *budget.Budget, s uset.Set, tr lang.Trace) []core.ParamCube {
	id := p.t.begin("backward", p.client, p.parent)
	cubes := p.Problem.Backward(b, s, tr)
	p.t.end(id, int64(len(cubes)))
	return cubes
}

// wrapProblem returns pr with its phases timed under the solve span parent.
// The wrapper implements core.ObsFlusher exactly when pr does.
func (t *tracer) wrapProblem(pr core.Problem, client string, parent int) core.Problem {
	if t == nil {
		return pr
	}
	tp := &tracedProblem{Problem: pr, t: t, client: client, parent: parent}
	if f, ok := pr.(core.ObsFlusher); ok {
		return struct {
			*tracedProblem
			core.ObsFlusher
		}{tp, f}
	}
	return tp
}

// tracedBatch times the forward runs, checks and backward passes of one
// SolveBatch call.
type tracedBatch struct {
	inner  core.BatchProblem
	t      *tracer
	client string
	parent int
}

func (b *tracedBatch) NumParams() int  { return b.inner.NumParams() }
func (b *tracedBatch) NumQueries() int { return b.inner.NumQueries() }

func (b *tracedBatch) RunForward(bud *budget.Budget, p uset.Set) core.BatchRun {
	id := b.t.begin("forward", b.client, b.parent)
	run := b.inner.RunForward(bud, p)
	b.t.end(id, 0)
	return b.wrapRun(run)
}

func (b *tracedBatch) Backward(bud *budget.Budget, q int, p uset.Set, tr lang.Trace) []core.ParamCube {
	id := b.t.begin("backward", b.client, b.parent)
	cubes := b.inner.Backward(bud, q, p, tr)
	b.t.end(id, int64(len(cubes)))
	return cubes
}

// tracedDeltaBatch adds RunForwardFrom for a wrapped DeltaBatchProblem.
type tracedDeltaBatch struct {
	*tracedBatch
	delta core.DeltaBatchProblem
}

// RunForwardFrom hands the wrapped problem the donor's own run: the inner
// problem recognizes only its own run type, and would silently solve cold
// when given a wrapper.
func (b *tracedDeltaBatch) RunForwardFrom(bud *budget.Budget, p uset.Set, donor core.BatchRun, donorP uset.Set) core.BatchRun {
	if w, ok := donor.(interface{ unwrapRun() core.BatchRun }); ok {
		donor = w.unwrapRun()
	}
	id := b.t.begin("forward", b.client, b.parent)
	run := b.delta.RunForwardFrom(bud, p, donor, donorP)
	b.t.end(id, 0)
	return b.wrapRun(run)
}

// tracedRun times the per-query checks of one forward run.
type tracedRun struct {
	core.BatchRun
	b *tracedBatch
}

func (r *tracedRun) unwrapRun() core.BatchRun { return r.BatchRun }

func (r *tracedRun) Check(q int) (bool, lang.Trace) {
	id := r.b.t.begin("check", r.b.client, r.b.parent)
	proved, tr := r.BatchRun.Check(q)
	r.b.t.end(id, 0)
	return proved, tr
}

// wrapRun wraps run; the wrapper implements core.DeltaRun exactly when run
// does.
func (b *tracedBatch) wrapRun(run core.BatchRun) core.BatchRun {
	tr := &tracedRun{BatchRun: run, b: b}
	if d, ok := run.(core.DeltaRun); ok {
		return struct {
			*tracedRun
			core.DeltaRun
		}{tr, d}
	}
	return tr
}

// wrapBatch returns bp with its phases timed under the batch span parent.
// The wrapper implements core.DeltaBatchProblem and core.ObsFlusher exactly
// when bp does: hiding DeltaBatchProblem would turn delta resume off.
func (t *tracer) wrapBatch(bp core.BatchProblem, client string, parent int) core.BatchProblem {
	if t == nil {
		return bp
	}
	tb := &tracedBatch{inner: bp, t: t, client: client, parent: parent}
	f, flush := bp.(core.ObsFlusher)
	if d, ok := bp.(core.DeltaBatchProblem); ok {
		td := &tracedDeltaBatch{tracedBatch: tb, delta: d}
		if flush {
			return struct {
				*tracedDeltaBatch
				core.ObsFlusher
			}{td, f}
		}
		return td
	}
	if flush {
		return struct {
			*tracedBatch
			core.ObsFlusher
		}{tb, f}
	}
	return tb
}
