// Package server implements tracerd's hardened solve service: an HTTP front
// end that admits solve requests under explicit resource bounds, starts a
// request's core.SolveBatch round as soon as an executor is idle, coalesces
// compatible requests into shared rounds while every executor is busy, and
// degrades — never dies — when overloaded, fed garbage, or fault-injected.
//
// The survivability contract, end to end:
//
//   - Malformed, oversized, or semantically invalid payloads are structured
//     400s. The decoder never panics and a bad payload never occupies a
//     batch slot.
//   - The accept queue is bounded; beyond it the daemon sheds load with 429
//     and a Retry-After priced from the observed batch wall. Per-tenant
//     token buckets bound any one caller's share.
//   - Per-request deadlines map onto the batch budget.Budget; a request that
//     expires in the queue resolves Exhausted without consuming solver time.
//   - Solver panics and budget trips surface as per-request Failed/Exhausted
//     statuses on HTTP 200 — a 200 means "resolved", not "proved".
//   - SIGTERM drains gracefully: in-flight and queued requests finish, new
//     arrivals get 503, the access log flushes, the process exits 0.
package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"tracer/internal/budget"
	"tracer/internal/core"
	"tracer/internal/faultinject"
	"tracer/internal/obs"
	"tracer/internal/warm"
)

// Config carries the daemon's admission and solving knobs. Zero values get
// production defaults from New.
type Config struct {
	// BatchSize caps the requests of one round (default 8). Compatible
	// requests coalesce only while every executor is busy; 1 disables
	// coalescing.
	BatchSize int
	// QueueLimit bounds the accept queue; arrivals beyond it get 429
	// (default 256).
	QueueLimit int
	// MaxConcurrentBatches bounds the executor pool (default 4). While every
	// executor is busy the dispatcher holds at most one full round per
	// executor, BatchSize × MaxConcurrentBatches requests, and leaves the
	// rest in the accept queue.
	MaxConcurrentBatches int
	// MaxRequestBytes bounds the request body (default 1<<20). Larger bodies
	// are structured 400s.
	MaxRequestBytes int64
	// DefaultTimeout applies to requests that name no timeout_ms
	// (default 5s); MaxTimeout caps what any request may ask for
	// (default 60s).
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration
	// MaxIters caps per-request CEGAR iterations (default 1000).
	MaxIters int
	// TenantRPS/TenantBurst configure per-tenant token buckets; TenantRPS 0
	// disables quotas.
	TenantRPS   float64
	TenantBurst int
	// Workers passes through to core.Options.
	Workers int
	// ProgCacheSize bounds the content-addressed loaded-program cache
	// (default 32).
	ProgCacheSize int
	// WarmDir mounts a warm-start store; empty disables it.
	WarmDir string
	// Recorder receives the access log and server.* counters (default none).
	Recorder obs.Recorder
	// Inject wires deterministic fault injection through both the server
	// sites and the solver's own hooks (default none).
	Inject *faultinject.Injector
}

func (c Config) withDefaults() Config {
	if c.BatchSize <= 0 {
		c.BatchSize = 8
	}
	if c.QueueLimit <= 0 {
		c.QueueLimit = 256
	}
	if c.MaxConcurrentBatches <= 0 {
		c.MaxConcurrentBatches = 4
	}
	if c.MaxRequestBytes <= 0 {
		c.MaxRequestBytes = 1 << 20
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 5 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 60 * time.Second
	}
	if c.MaxIters <= 0 {
		c.MaxIters = 1000
	}
	if c.ProgCacheSize <= 0 {
		c.ProgCacheSize = 32
	}
	if c.Recorder == nil {
		c.Recorder = obs.Nop{}
	}
	return c
}

// Server is the solve service. Create with New, mount Handler on an
// http.Server, stop with Shutdown.
type Server struct {
	cfg       Config
	rec       obs.Recorder
	recording bool
	inj       *faultinject.Injector

	progs  *progCache
	quotas *quotas
	warm   *warm.Store
	warmMu sync.Mutex

	baseCtx    context.Context
	baseCancel context.CancelFunc

	// acceptMu serializes admission against the drain flip: handlers hold it
	// shared around {draining check; queued.Add; send}, Shutdown holds it
	// exclusively to set draining. After Shutdown releases it, queued can
	// only decrease, which is what makes the dispatcher's drain loop finite.
	acceptMu sync.RWMutex
	draining bool

	in      chan *request
	queued  atomic.Int64
	quiesce chan struct{}

	execCh         chan []*request
	execWG         sync.WaitGroup
	dispatcherDone chan struct{}

	rseq        atomic.Int64
	bseq        atomic.Int64
	inflight    atomic.Int64
	ewmaBatchNS atomic.Int64

	stats serverStats
}

type serverStats struct {
	accepted       atomic.Int64
	rejectedBadReq atomic.Int64
	rejectedQueue  atomic.Int64
	rejectedQuota  atomic.Int64
	rejectedDrain  atomic.Int64
	expired        atomic.Int64
	batches        atomic.Int64
	warmSaveErrs   atomic.Int64
}

// Stats is a point-in-time snapshot of the daemon's counters, served on
// GET /stats.
type Stats struct {
	Accepted           int64 `json:"accepted"`
	RejectedBadRequest int64 `json:"rejected_bad_request"`
	RejectedQueueFull  int64 `json:"rejected_queue_full"`
	RejectedQuota      int64 `json:"rejected_quota"`
	RejectedDraining   int64 `json:"rejected_draining"`
	ExpiredInQueue     int64 `json:"expired_in_queue"`
	Batches            int64 `json:"batches"`
	WarmSaveErrors     int64 `json:"warm_save_errors"`
	Queued             int64 `json:"queued"`
	InflightBatches    int64 `json:"inflight_batches"`
	Draining           bool  `json:"draining"`
	EWMABatchMS        int64 `json:"ewma_batch_ms"`
}

// New builds and starts a Server: the dispatcher and executor pool run until
// Shutdown.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:            cfg,
		rec:            cfg.Recorder,
		recording:      cfg.Recorder.Enabled(),
		inj:            cfg.Inject,
		progs:          newProgCache(cfg.ProgCacheSize),
		quotas:         newQuotas(cfg.TenantRPS, cfg.TenantBurst),
		warm:           warm.Open(cfg.WarmDir, cfg.Recorder),
		in:             make(chan *request, cfg.QueueLimit),
		quiesce:        make(chan struct{}),
		execCh:         make(chan []*request),
		dispatcherDone: make(chan struct{}),
	}
	s.baseCtx, s.baseCancel = context.WithCancel(context.Background())
	s.execWG.Add(cfg.MaxConcurrentBatches)
	for i := 0; i < cfg.MaxConcurrentBatches; i++ {
		go s.executor()
	}
	go s.dispatch()
	return s
}

// Handler returns the daemon's HTTP mux.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /solve", s.handleSolve)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /stats", s.handleStats)
	return mux
}

// handleSolve is the admission path: bound the body, decode, quota-check,
// fire the request-site chaos hook, enqueue (or shed), then wait for the
// batcher's response.
func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	arrival := time.Now()
	id := fmt.Sprintf("r%d", s.rseq.Add(1)-1)

	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxRequestBytes)
	body, rerr := io.ReadAll(r.Body)
	if rerr != nil {
		s.reject(w, id, http.StatusBadRequest, "bad_request",
			fmt.Sprintf("request body unreadable or over %d bytes: %v",
				s.cfg.MaxRequestBytes, rerr))
		return
	}
	req, derr := s.decode(body)
	if derr != nil {
		s.reject(w, id, http.StatusBadRequest, "bad_request", derr.Error())
		return
	}
	req.id = id
	req.arrival = arrival
	req.deadline = arrival.Add(req.timeout)
	req.decodeNS = int64(time.Since(arrival))
	if h := r.Header.Get("X-Tenant"); h != "" {
		req.tenant = h
	}

	if !s.quotas.allow(req.tenant, arrival) {
		s.reject(w, id, http.StatusTooManyRequests, "quota",
			fmt.Sprintf("tenant %q over quota", req.tenant))
		return
	}

	// Request-site chaos hook. A panic resolves this request Failed, a trip
	// resolves it Exhausted — in both cases before it can occupy a batch
	// slot, and with the access-log stream still correctly terminated.
	hookBud := budget.New(nil, time.Time{}, 0)
	var hookPanic string
	func() {
		defer func() {
			if p := recover(); p != nil {
				hookPanic = fmt.Sprint(p)
			}
		}()
		s.inj.At(hookBud, faultinject.SiteServerRequest, id)
	}()
	if hookPanic != "" {
		s.accepted(req)
		s.writeResolvedHTTP(w, req, core.Failed, "injected request fault: "+hookPanic)
		return
	}
	if hookBud.Tripped() {
		s.accepted(req)
		s.writeResolvedHTTP(w, req, core.Exhausted, "")
		return
	}

	s.acceptMu.RLock()
	if s.draining {
		s.acceptMu.RUnlock()
		s.reject(w, id, http.StatusServiceUnavailable, "draining", "server is draining")
		return
	}
	s.queued.Add(1)
	select {
	case s.in <- req:
	default:
		s.queued.Add(-1)
		s.acceptMu.RUnlock()
		s.reject(w, id, http.StatusTooManyRequests, "queue_full", "accept queue full")
		return
	}
	s.accepted(req)
	s.acceptMu.RUnlock()

	if s.recording {
		s.rec.Gauge(obs.ServerQueueDepth, s.queued.Load())
	}

	select {
	case resp := <-req.done:
		writeJSON(w, http.StatusOK, resp)
	case <-r.Context().Done():
		// The client went away. The batcher still delivers into the buffered
		// channel; there is nothing left to write.
	}
}

// accepted marks a request admitted — counted and logged only once its fate
// is decided (enqueued, or resolved degraded on the admission path), so an
// accepted request always gets a terminal query_resolved event and a shed
// one never logs as accepted.
func (s *Server) accepted(req *request) {
	s.stats.accepted.Add(1)
	if s.recording {
		s.rec.Count(obs.ServerAccepted, 1)
		s.rec.Record(obs.Event{Kind: obs.RequestAccepted, Query: req.id, Name: req.compat})
	}
}

// writeResolvedHTTP resolves a request on the admission path (request-site
// fault) with a 200-carried degraded status, keeping the one-terminal-event
// access-log invariant.
func (s *Server) writeResolvedHTTP(w http.ResponseWriter, req *request, status core.Status, failure string) {
	if s.recording {
		s.rec.Record(obs.Event{Kind: obs.QueryResolved, Query: req.id,
			Status: status.String(), WallNS: int64(time.Since(req.arrival))})
	}
	resp := SolveResponse{
		ID:      req.id,
		Status:  status.String(),
		Failure: failure,
		Timing: PhaseTiming{
			DecodeNS: req.decodeNS,
			TotalNS:  int64(time.Since(req.arrival)),
		},
	}
	writeJSON(w, http.StatusOK, resp)
}

// reject writes one structured non-200, bumps its counter, and logs the
// rejection.
func (s *Server) reject(w http.ResponseWriter, id string, status int, reason, msg string) {
	var retryMS int64
	switch reason {
	case "bad_request":
		s.stats.rejectedBadReq.Add(1)
	case "queue_full":
		s.stats.rejectedQueue.Add(1)
	case "quota":
		s.stats.rejectedQuota.Add(1)
	case "draining":
		s.stats.rejectedDrain.Add(1)
	}
	if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
		retryMS = s.retryAfterMS()
		w.Header().Set("Retry-After", fmt.Sprintf("%d", (retryMS+999)/1000))
	}
	if s.recording {
		s.rec.Count(rejectCounter(reason), 1)
		s.rec.Record(obs.Event{Kind: obs.RequestRejected, Query: id,
			Name: reason, Status: fmt.Sprintf("%d", status)})
	}
	writeJSON(w, status, ErrorResponse{ID: id, Error: msg, RetryAfterMS: retryMS})
}

func rejectCounter(reason string) string {
	switch reason {
	case "queue_full":
		return obs.ServerRejectedQueue
	case "quota":
		return obs.ServerRejectedQuota
	case "draining":
		return obs.ServerRejectedDrain
	}
	return obs.ServerRejectedBadReq
}

// retryAfterMS prices a Retry-After from the EWMA batch wall scaled by the
// current load (queued rounds ahead plus rounds in flight), clamped to a
// sane range.
func (s *Server) retryAfterMS() int64 {
	base := s.ewmaBatchNS.Load()
	factor := s.queued.Load()/int64(s.cfg.BatchSize) + s.inflight.Load() + 1
	ms := base * factor / int64(time.Millisecond)
	if ms < 100 {
		ms = 100
	}
	if ms > 30_000 {
		ms = 30_000
	}
	return ms
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.acceptMu.RLock()
	draining := s.draining
	s.acceptMu.RUnlock()
	if draining {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "draining")
		return
	}
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Snapshot())
}

// Snapshot returns the current Stats.
func (s *Server) Snapshot() Stats {
	s.acceptMu.RLock()
	draining := s.draining
	s.acceptMu.RUnlock()
	return Stats{
		Accepted:           s.stats.accepted.Load(),
		RejectedBadRequest: s.stats.rejectedBadReq.Load(),
		RejectedQueueFull:  s.stats.rejectedQueue.Load(),
		RejectedQuota:      s.stats.rejectedQuota.Load(),
		RejectedDraining:   s.stats.rejectedDrain.Load(),
		ExpiredInQueue:     s.stats.expired.Load(),
		Batches:            s.stats.batches.Load(),
		WarmSaveErrors:     s.stats.warmSaveErrs.Load(),
		Queued:             s.queued.Load(),
		InflightBatches:    s.inflight.Load(),
		Draining:           draining,
		EWMABatchMS:        s.ewmaBatchNS.Load() / int64(time.Millisecond),
	}
}

// Shutdown drains the daemon: new arrivals start getting 503, every already
// admitted request is batched and finished, then the batcher goroutines
// exit. When ctx expires first, in-flight solves are cancelled through the
// base context — they resolve Exhausted through the solver's cooperative
// paths — and Shutdown still waits for them before returning ctx's error.
func (s *Server) Shutdown(ctx context.Context) error {
	// Drain-site chaos hook: shutdown must survive its own fault injection.
	func() {
		defer func() { recover() }()
		s.inj.At(budget.New(nil, time.Time{}, 0), faultinject.SiteServerDrain, "drain")
	}()

	s.acceptMu.Lock()
	already := s.draining
	s.draining = true
	s.acceptMu.Unlock()
	if !already {
		close(s.quiesce)
	}

	done := make(chan struct{})
	go func() {
		<-s.dispatcherDone
		s.execWG.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = ctx.Err()
		s.baseCancel()
		<-done
	}
	s.baseCancel()
	return err
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}
