package bench

import (
	"context"
	"fmt"
	"sync"
	"time"

	"tracer/internal/core"
	"tracer/internal/driver"
	"tracer/internal/obs"
	"tracer/internal/warm"
)

// Client names a client analysis by its bench/table display name (the
// driver registry's BenchName; the wire name differs — see driver.Clients).
type Client string

const (
	Typestate Client = "type-state"
	Escape    Client = "thread-escape"
	Nullness  Client = "null-deref"
)

// Clients returns every registered client in the driver registry's
// deterministic order, under bench display names.
func Clients() []Client {
	var out []Client
	for _, spec := range driver.Clients() {
		out = append(out, Client(spec.BenchName))
	}
	return out
}

// RunOptions tunes a client run over one benchmark.
type RunOptions struct {
	K          int           // beam width (the paper's k; 5 in the evaluation)
	MaxIters   int           // CEGAR iteration cap per query
	Timeout    time.Duration // wall-clock cap per query (paper: 1,000 min)
	MaxQueries int           // 0 = all queries
	Fresh      bool          // bypass the result cache (for testing.B loops)
	// Workers resolves queries concurrently (queries are independent; each
	// job owns its analysis instance). 0 or 1 means sequential. Per-query
	// timings remain meaningful; total wall time shrinks.
	Workers int
	// BatchWorkers is the worker-pool size of the grouped multi-query
	// solver (core.Options.Workers): RunBatch schedules independent query
	// groups and per-query meta-analyses across it. Results are identical
	// for every value.
	BatchWorkers int
	// Context, when non-nil, cancels in-flight solves cooperatively
	// (core.Options.Context); unresolved queries report Exhausted with
	// partial stats. paperbench wires a signal.NotifyContext here so SIGINT
	// still flushes the NDJSON trace and metrics.
	Context context.Context
	// Recorder receives the TRACER loop's structured telemetry, tagged with
	// each query's ID (see internal/obs). It must be safe for concurrent
	// use when Workers > 1. Note the run cache: cached results replay no
	// events — set Fresh to re-record a previously computed run.
	Recorder obs.Recorder
	// WarmDir, when non-empty, names a warm-start store directory
	// (internal/warm): Run solves each query through warm.Session.Solve and
	// RunBatch through warm.Session.SolveBatch, which decide what is
	// replayed, seeded and stored, and both save the session on completion.
	WarmDir string
}

// DefaultRunOptions are the settings used to regenerate the paper's tables.
func DefaultRunOptions() RunOptions {
	return RunOptions{K: 5, MaxIters: 200, Timeout: 5 * time.Second}
}

// QueryOutcome records the resolution of one query.
type QueryOutcome struct {
	ID          string
	Status      core.Status
	Iterations  int
	AbsSize     int    // |cheapest abstraction| when proved
	Abstraction string // canonical key of the cheapest abstraction
	Millis      float64
	Steps       int
}

// ClientResult is one (benchmark, client, k) run over all queries.
type ClientResult struct {
	Benchmark string
	Client    Client
	K         int
	Outcomes  []QueryOutcome
	WallMilli float64
}

// Proven, Impossible, Unresolved count outcomes by status.
func (r *ClientResult) Proven() int     { return r.count(core.Proved) }
func (r *ClientResult) Impossible() int { return r.count(core.Impossible) }
func (r *ClientResult) Unresolved() int { return r.count(core.Exhausted) }

func (r *ClientResult) count(s core.Status) int {
	n := 0
	for _, o := range r.Outcomes {
		if o.Status == s {
			n++
		}
	}
	return n
}

// Run executes every generated query of the given client individually
// through TRACER, mirroring the paper's per-query resolution. Results are
// cached per (benchmark, client, k, query cap).
func Run(b *Benchmark, client Client, opts RunOptions) (*ClientResult, error) {
	key := fmt.Sprintf("%s/%s/k=%d/max=%d/cap=%d/to=%s/warm=%s", b.Config.Name, client, opts.K, opts.MaxIters, opts.MaxQueries, opts.Timeout, opts.WarmDir)
	if !opts.Fresh {
		runMu.Lock()
		if r, ok := runCache[key]; ok {
			runMu.Unlock()
			return r, nil
		}
		runMu.Unlock()
	}

	spec := specOf(client)
	if spec == nil {
		return nil, fmt.Errorf("bench: unknown client %q", client)
	}

	res := &ClientResult{Benchmark: b.Config.Name, Client: client, K: opts.K}
	start := time.Now()
	sess := warmSession(b, spec, opts)
	queries := clientQueries(b, spec, opts)
	if err := runAll(len(queries), opts, res, sess, func(i int) (string, string, core.Problem) {
		return queries[i].ID, queries[i].Key, spec.Job(b.Prog, i, opts.K)
	}); err != nil {
		return nil, err
	}
	if err := sess.Save(); err != nil {
		return nil, fmt.Errorf("bench: saving warm snapshot: %w", err)
	}
	res.WallMilli = float64(time.Since(start).Microseconds()) / 1000

	if !opts.Fresh {
		runMu.Lock()
		runCache[key] = res
		runMu.Unlock()
	}
	return res, nil
}

var (
	runMu    sync.Mutex
	runCache = map[string]*ClientResult{}
)

func coreOpts(opts RunOptions) core.Options {
	return core.Options{
		MaxIters: opts.MaxIters, Timeout: opts.Timeout, Context: opts.Context,
		Recorder: opts.Recorder,
		Workers:  opts.BatchWorkers,
	}
}

// specOf resolves a bench display name through the driver registry, or nil
// when unknown.
func specOf(client Client) *driver.ClientSpec {
	for _, spec := range driver.Clients() {
		if Client(spec.BenchName) == client {
			return spec
		}
	}
	return nil
}

// clientQueries returns the client's generated queries on b (the first
// MaxQueries when capped).
func clientQueries(b *Benchmark, spec *driver.ClientSpec, opts RunOptions) []driver.GenQuery {
	queries := spec.Queries(b.Prog)
	if opts.MaxQueries > 0 && len(queries) > opts.MaxQueries {
		queries = queries[:opts.MaxQueries]
	}
	return queries
}

// warmSession opens the warm-start session for one run, or nil when WarmDir
// is unset. The warm store's client names are the registry's wire names.
// The config carries the *effective* iteration cap (core's default applied)
// so Exhausted replay compares like with like.
func warmSession(b *Benchmark, spec *driver.ClientSpec, opts RunOptions) *warm.Session {
	if opts.WarmDir == "" {
		return nil
	}
	maxIters := opts.MaxIters
	if maxIters <= 0 {
		maxIters = 1000 // core.Options default
	}
	st := warm.Open(opts.WarmDir, opts.Recorder)
	return st.Session(b.Prog, warm.Config{
		Client:   warm.Client(spec.Name),
		K:        opts.K,
		MaxIters: maxIters,
	})
}

// runAll resolves n queries, optionally across a worker pool. Results keep
// query order regardless of completion order. job returns a query's display
// ID, its position-independent warm-store key, and the solver problem.
func runAll(n int, opts RunOptions, res *ClientResult, sess *warm.Session, job func(i int) (string, string, core.Problem)) error {
	outcomes := make([]QueryOutcome, n)
	errs := make([]error, n)
	workers := opts.Workers
	if workers <= 1 {
		for i := 0; i < n; i++ {
			id, key, pr := job(i)
			outcomes[i], errs[i] = solveOne(id, key, pr, opts, sess)
		}
	} else {
		var wg sync.WaitGroup
		work := make(chan int)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range work {
					id, key, pr := job(i)
					outcomes[i], errs[i] = solveOne(id, key, pr, opts, sess)
				}
			}()
		}
		for i := 0; i < n; i++ {
			work <- i
		}
		close(work)
		wg.Wait()
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	res.Outcomes = append(res.Outcomes, outcomes...)
	return nil
}

func solveOne(id, key string, job core.Problem, opts RunOptions, sess *warm.Session) (QueryOutcome, error) {
	start := time.Now()
	copts := coreOpts(opts)
	copts.Recorder = obs.Tag(opts.Recorder, id)
	r, err := sess.Solve(key, job, copts)
	if err != nil {
		return QueryOutcome{}, fmt.Errorf("query %s: %w", id, err)
	}
	o := QueryOutcome{
		ID:         id,
		Status:     r.Status,
		Iterations: r.Iterations,
		Millis:     float64(time.Since(start).Microseconds()) / 1000,
		Steps:      r.ForwardSteps,
	}
	if r.Status == core.Proved {
		o.AbsSize = r.Abstraction.Len()
		o.Abstraction = r.Abstraction.Key()
	}
	return o, nil
}

// RunBatch resolves the same queries through the grouped multi-query driver
// of §6, for the grouping ablation. With WarmDir set it solves through
// warm.Session.SolveBatch (seeded queries start in their own solver group)
// and saves the session.
func RunBatch(b *Benchmark, client Client, opts RunOptions) (*core.BatchResult, error) {
	spec := specOf(client)
	if spec == nil {
		return nil, fmt.Errorf("bench: unknown client %q", client)
	}
	queries := clientQueries(b, spec, opts)
	keys := make([]string, len(queries))
	idx := make([]int, len(queries))
	for i, q := range queries {
		keys[i] = q.Key
		idx[i] = i
	}
	sess := warmSession(b, spec, opts)
	res, err := sess.SolveBatch(keys, spec.Batch(b.Prog, idx, opts.K), coreOpts(opts))
	if err != nil {
		return nil, err
	}
	if err := sess.Save(); err != nil {
		return nil, fmt.Errorf("bench: saving warm snapshot: %w", err)
	}
	return res, nil
}
