package server

import (
	"fmt"
	"strconv"
	"time"

	"tracer/internal/budget"
	"tracer/internal/core"
	"tracer/internal/driver"
	"tracer/internal/faultinject"
	"tracer/internal/lang"
	"tracer/internal/obs"
	"tracer/internal/uset"
	"tracer/internal/warm"
)

// The batcher turns the admitted request stream into core.SolveBatch rounds.
// A single dispatcher goroutine groups requests by their compatibility key
// (program content hash, client, k, iteration cap, timeout) and offers the
// oldest group to the executor pool on an unbuffered channel, so the offer
// succeeds the moment an executor is idle. Before each offer the dispatcher
// takes every request already waiting in the accept queue, so requests that
// arrive together share a round, but it never waits for one that has not
// arrived: requests coalesce only while every executor is busy, up to
// BatchSize per round. Backpressure is a chain of bounded stages: executors
// busy → the dispatcher holds one full round per executor (BatchSize ×
// MaxConcurrentBatches requests) and stops reading the accept queue → the
// accept queue fills → the handler sheds load with 429s. Nothing in the
// chain blocks unboundedly with a request's response channel unserved: every
// admitted request receives exactly one SolveResponse, whatever degrades
// along the way.

// dispatch is the batcher's single grouping goroutine. Pending groups are
// first-in first-out by first arrival. Only the newest group of a
// compatibility key can have room, so a request joins the first group of its
// key that is not full, or opens a new one.
func (s *Server) dispatch() {
	defer close(s.dispatcherDone)
	type group struct {
		compat string
		reqs   []*request
	}
	var queue []*group
	held, hold := 0, s.cfg.BatchSize*s.cfg.MaxConcurrentBatches
	take := func(req *request) {
		s.queued.Add(-1)
		held++
		for _, g := range queue {
			if g.compat == req.compat && len(g.reqs) < s.cfg.BatchSize {
				g.reqs = append(g.reqs, req)
				return
			}
		}
		queue = append(queue, &group{compat: req.compat, reqs: []*request{req}})
	}
	pop := func() []*request {
		g := queue[0]
		queue = queue[1:]
		held -= len(g.reqs)
		return g.reqs
	}
	for {
	arrived:
		for held < hold {
			select {
			case req := <-s.in:
				take(req)
			default:
				break arrived
			}
		}
		// A nil channel disables its case: in while the hold is full, exec
		// while no group is pending.
		var in <-chan *request
		if held < hold {
			in = s.in
		}
		var exec chan<- []*request
		var oldest []*request
		if len(queue) > 0 {
			exec, oldest = s.execCh, queue[0].reqs
		}
		select {
		case req := <-in:
			take(req)
		case exec <- oldest:
			pop()
		case <-s.quiesce:
			// Graceful drain: absorb every request already admitted (the
			// accept gate is closed, so queued only decreases), fire all
			// pending groups, and let the executors finish.
			for s.queued.Load() > 0 {
				take(<-s.in)
			}
			for len(queue) > 0 {
				s.execCh <- pop()
			}
			close(s.execCh)
			return
		}
	}
}

// executor drains fired batches until the exec channel closes at drain.
func (s *Server) executor() {
	defer s.execWG.Done()
	for reqs := range s.execCh {
		s.runBatch(reqs)
	}
}

// batchRecorder re-tags the solver's per-query events from batch indices to
// request ids, and stamps group-level events (which carry no query) with the
// batch id, so the access log is one attributable stream per request.
type batchRecorder struct {
	rec   obs.Recorder
	ids   []string
	batch string
}

func (b *batchRecorder) Enabled() bool { return true }
func (b *batchRecorder) Record(e obs.Event) {
	if e.Query == "" {
		e.Query = b.batch
	} else if i, err := strconv.Atoi(e.Query); err == nil && i >= 0 && i < len(b.ids) {
		e.Query = b.ids[i]
	}
	b.rec.Record(e)
}
func (b *batchRecorder) Count(name string, delta int64)      { b.rec.Count(name, delta) }
func (b *batchRecorder) Gauge(name string, v int64)          { b.rec.Gauge(name, v) }
func (b *batchRecorder) Timing(name string, d time.Duration) { b.rec.Timing(name, d) }

// runBatch executes one coalesced round. The survivability contract: every
// request in reqs gets exactly one response and one terminal query_resolved
// access-log event, and nothing that happens here — a panic in problem
// construction, an injected fault, a budget trip, a warm-store defect —
// escapes the round.
func (s *Server) runBatch(reqs []*request) {
	bid := fmt.Sprintf("b%d", s.bseq.Add(1)-1)
	start := time.Now()
	s.stats.batches.Add(1)
	s.inflight.Add(1)
	defer s.inflight.Add(-1)

	// Partition out requests whose own deadline already passed in the
	// queue; they resolve Exhausted without occupying the round.
	var live []*request
	minDeadline := time.Time{}
	for _, r := range reqs {
		if !r.deadline.After(start) {
			s.stats.expired.Add(1)
			if s.recording {
				s.rec.Count(obs.ServerExpired, 1)
			}
			s.respondDegraded(r, bid, len(reqs), start, core.Exhausted, "deadline passed while queued")
			continue
		}
		if minDeadline.IsZero() || r.deadline.Before(minDeadline) {
			minDeadline = r.deadline
		}
		live = append(live, r)
	}
	if len(live) == 0 {
		return
	}
	if s.recording {
		s.rec.Count(obs.ServerBatches, 1)
		if len(live) > 1 {
			s.rec.Count(obs.ServerCoalesced, int64(len(live)))
		}
		for _, r := range live {
			s.rec.Timing(obs.ServerBatchWait, start.Sub(r.arrival))
		}
	}

	failAll := func(msg string) {
		for _, r := range live {
			s.respondDegraded(r, bid, len(reqs), start, core.Failed, msg)
		}
	}

	// Batch-site chaos hook. A panic fails the round's requests (never the
	// process); an injected trip lands on the throwaway budget and is
	// translated into a one-step quota so the round resolves Exhausted
	// through the solver's own cooperative paths.
	hookBud := budget.New(nil, time.Time{}, 0)
	var hookPanic string
	func() {
		defer func() {
			if r := recover(); r != nil {
				hookPanic = fmt.Sprint(r)
			}
		}()
		s.inj.At(hookBud, faultinject.SiteServerBatch, bid)
	}()
	if hookPanic != "" {
		failAll("injected batch fault: " + hookPanic)
		return
	}

	// From here on, any panic (problem construction, a solver defect that
	// escapes core's own recovery, a warm-store bug) degrades the round.
	defer func() {
		if r := recover(); r != nil {
			failAll(fmt.Sprintf("batch panic: %v", r))
		}
	}()

	first := live[0]
	// Dispatch through the client registry. decode admits only registered
	// clients, so an unresolvable kind here is a defect (a request forged in
	// tests, or a registry edit racing a deploy) — fail the round before any
	// query key is resolved or any warm-store session can be opened against
	// the wrong client's snapshots.
	spec := driver.ClientByName(string(first.client))
	if spec == nil {
		failAll(fmt.Sprintf("invalid client %q", first.client))
		return
	}
	opts := core.Options{
		MaxIters: first.maxIter,
		Timeout:  minDeadline.Sub(start),
		Context:  s.baseCtx,
		Workers:  s.cfg.Workers,
		Inject:   s.inj,
	}
	if opts.Timeout <= 0 {
		opts.Timeout = time.Millisecond
	}
	if hookBud.Tripped() {
		opts.MaxSteps = 1
	}
	ids := make([]string, len(live))
	keys := make([]string, len(live))
	for i, r := range live {
		ids[i] = r.id
		keys[i] = r.queryKey()
	}
	if s.recording {
		opts.Recorder = &batchRecorder{rec: s.rec, ids: ids, batch: bid}
	}

	idx := make([]int, len(live))
	for i, r := range live {
		idx[i] = r.queryIx
	}
	bp := spec.Batch(first.lp.prog, idx, first.k)

	// Warm-start: seed each request's surviving stored clauses and persist
	// what the round learns. Sessions for one program race only on Save
	// (tmp+rename, last wins); warmMu serializes open/save so concurrent
	// rounds never interleave snapshot writes. Skipped for rounds already
	// degraded by an injected trip — their partial learning is worthless.
	var sess *warm.Session
	if s.warm.Enabled() && !hookBud.Tripped() {
		s.warmMu.Lock()
		sess = s.warm.Session(first.lp.prog, warm.Config{
			Client:   warm.Client(spec.Name),
			K:        first.k,
			MaxIters: first.maxIter,
			Timeout:  first.timeout,
		})
		s.warmMu.Unlock()
		opts.SeedBatch = func(q int) []core.ParamCube { return sess.SeedFor(keys[q]) }
		opts.OnLearn = func(q int, _ uset.Set, t lang.Trace, cubes []core.ParamCube) {
			sess.RecordLearn(keys[q], t, cubes)
		}
	}

	res, err := core.SolveBatch(bp, opts)
	solveNS := int64(time.Since(start))
	s.observeBatchWall(solveNS)
	if s.recording {
		s.rec.Timing(obs.ServerBatchSolve, time.Duration(solveNS))
	}
	if err != nil {
		failAll("batch solve error: " + err.Error())
		return
	}

	if sess != nil {
		// Proved/Impossible only: a batch Exhausted verdict is measured
		// against the shared round budget and is not replay-comparable.
		for i, r := range res.Results {
			if r.Status == core.Proved || r.Status == core.Impossible {
				sess.RecordResult(keys[i], r)
			}
		}
		s.warmMu.Lock()
		serr := sess.Save()
		s.warmMu.Unlock()
		if serr != nil {
			s.stats.warmSaveErrs.Add(1)
		}
	}

	bi := BatchInfo{ID: bid, Size: len(reqs), Rounds: res.Stats.Rounds, Coalesced: len(live) > 1}
	for i, r := range live {
		s.respond(r, s.resultResponse(r, res.Results[i], bi, start, solveNS))
	}
}

// resultResponse converts one solver Result into the wire response.
func (s *Server) resultResponse(req *request, r core.Result, bi BatchInfo, batchStart time.Time, solveNS int64) SolveResponse {
	resp := SolveResponse{
		Status:       r.Status.String(),
		Iterations:   r.Iterations,
		Clauses:      r.Clauses,
		ForwardSteps: r.ForwardSteps,
		Failure:      r.Failure,
		Timing: PhaseTiming{
			QueueNS: int64(batchStart.Sub(req.arrival)),
			SolveNS: solveNS,
		},
		Batch: bi,
	}
	if r.Status == core.Proved {
		resp.Cost = r.Abstraction.Len()
		resp.Abstraction = make([]string, 0, resp.Cost)
		for _, i := range r.Abstraction.Elems() {
			resp.Abstraction = append(resp.Abstraction, req.paramName(i))
		}
	}
	return resp
}

// respond delivers the response, stamping the request-scoped timing fields.
func (s *Server) respond(req *request, resp SolveResponse) {
	resp.ID = req.id
	resp.Timing.DecodeNS = req.decodeNS
	resp.Timing.TotalNS = int64(time.Since(req.arrival))
	req.done <- resp
}

// respondDegraded resolves a request outside the solver (queue expiry, a
// batch-level fault) and emits the synthetic terminal query_resolved event
// the solver would otherwise have produced, keeping the access-log invariant
// — every accepted request's stream ends in exactly one query_resolved.
func (s *Server) respondDegraded(req *request, bid string, size int, batchStart time.Time, status core.Status, failure string) {
	if s.recording {
		s.rec.Record(obs.Event{Kind: obs.QueryResolved, Query: req.id,
			Status: status.String(), WallNS: int64(time.Since(req.arrival))})
	}
	resp := SolveResponse{
		Status: status.String(),
		Timing: PhaseTiming{QueueNS: int64(batchStart.Sub(req.arrival))},
		Batch:  BatchInfo{ID: bid, Size: size},
	}
	if status == core.Failed {
		resp.Failure = failure
	}
	s.respond(req, resp)
}

// observeBatchWall folds one round's wall time into the EWMA that prices
// Retry-After for shed requests.
func (s *Server) observeBatchWall(ns int64) {
	for {
		old := s.ewmaBatchNS.Load()
		nw := ns
		if old > 0 {
			nw = old + (ns-old)/5
		}
		if s.ewmaBatchNS.CompareAndSwap(old, nw) {
			return
		}
	}
}
