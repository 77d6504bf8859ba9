package main

import (
	"fmt"
	"net/http"
	"os"
	"time"

	"tracer/internal/core"
	"tracer/internal/driver"
	"tracer/internal/ir"
	"tracer/internal/lang"
	"tracer/internal/uset"
	"tracer/internal/warm"
)

// runner executes passes of one workload over inputs built by its set-up.
// Every pass does the same work; pass n only changes the order.
type runner interface {
	// pass runs pass n, appending its latencies to tl and, when t is
	// non-nil, its spans and counts to t. It calls sp.unitDone between units
	// of work. It returns every delivered answer, to be checked after the
	// pass.
	pass(n int, t *tracer, tl *tally, sp *speedo) ([]outcome, error)
	close()
}

// workload is one benchmark workload: a set-up producing a runner. scaled
// workloads are CPU-bound and have their times scaled to reference host
// speed (see speed.go); serve spends most of its latency waiting in the
// server's coalescing window, which host speed does not change.
type workload struct {
	name   string
	setup  func(seed int64) (runner, error)
	scaled bool
}

var workloads = []workload{
	{"sweep", setupSweep, true},
	{"batch", setupBatch, true},
	{"edit", setupEdit, true},
	{"serve", setupServe, false},
}

func solveOpts(t *tracer) core.Options {
	return core.Options{MaxIters: maxIters, MaxSteps: stepsQuota, Recorder: t.recorder()}
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// sweepJob solves j's queries in the given order, one core.Solve call each
// through the driver registry's Job, and appends each call's latency to tl
// (nil: not timed).
func sweepJob(j *job, t *tracer, tl *tally, order []int) ([]outcome, error) {
	params := j.spec.ParamNames(j.prog.prog)
	outs := make([]outcome, 0, len(order))
	for _, i := range order {
		pr := j.spec.Job(j.prog.prog, i, beamK)
		id := t.begin("solve", j.spec.Name, 0)
		start := time.Now()
		r, err := core.Solve(t.wrapProblem(pr, j.spec.Name, id), solveOpts(t))
		d := time.Since(start)
		t.end(id, 0)
		if err != nil {
			return nil, fmt.Errorf("%s %s query %d: %w", j.prog.name, j.spec.Name, i, err)
		}
		t.count("core.iterations", int64(r.Iterations))
		t.count("core.clauses", int64(r.Clauses))
		if tl != nil {
			tl.latencyMS = append(tl.latencyMS, ms(d))
		}
		outs = append(outs, outcome{key: goldenKey(j.prog.name, j.spec.Name, j.keys[i]), v: verdictOf(r, params), iters: r.Iterations})
	}
	return outs, nil
}

// batchJob solves all of j's queries in one core.SolveBatch call.
func batchJob(j *job, t *tracer, workers int) ([]outcome, core.BatchStats, error) {
	n := len(j.keys)
	bp := j.spec.Batch(j.prog.prog, identity(n), beamK)
	opts := solveOpts(t)
	opts.MaxSteps = stepsQuota * int64(n)
	opts.Workers = workers
	id := t.begin("batch", j.spec.Name, 0)
	res, err := core.SolveBatch(t.wrapBatch(bp, j.spec.Name, id), opts)
	t.end(id, 0)
	if err != nil {
		return nil, core.BatchStats{}, fmt.Errorf("%s %s batch: %w", j.prog.name, j.spec.Name, err)
	}
	params := j.spec.ParamNames(j.prog.prog)
	outs := make([]outcome, n)
	for q, r := range res.Results {
		t.count("core.iterations", int64(r.Iterations))
		t.count("core.clauses", int64(r.Clauses))
		outs[q] = outcome{key: goldenKey(j.prog.name, j.spec.Name, j.keys[q]), v: verdictOf(r, params), iters: r.Iterations}
	}
	st := res.Stats
	t.count("forward.steps", int64(st.TotalSteps))
	t.count("forward.reused", int64(st.PEReused))
	t.count("batch.forward_runs", int64(st.ForwardRuns))
	t.count("batch.fwd_hits", int64(st.FwdCacheHits))
	t.count("batch.fwd_misses", int64(st.FwdCacheMisses))
	t.count("batch.delta_resumes", int64(st.DeltaResumes))
	t.count("batch.rounds", int64(st.Rounds))
	t.peak("batch.peak_groups", int64(st.PeakGroups))
	return outs, st, nil
}

// suiteRunner holds the loaded suite for the sweep and batch workloads.
type suiteRunner struct {
	seed  int64
	jobs  []*job
	batch bool
}

func setupSuite(seed int64, batch bool) (runner, error) {
	progs := suiteSources()
	if err := load(progs); err != nil {
		return nil, err
	}
	return &suiteRunner{seed: seed, jobs: jobsOf(progs), batch: batch}, nil
}

func setupSweep(seed int64) (runner, error) { return setupSuite(seed, false) }
func setupBatch(seed int64) (runner, error) { return setupSuite(seed, true) }

func (s *suiteRunner) close() {}

// pass visits the jobs in a seed-shuffled order. A sweep job's latency
// samples are its Solve calls; a batch delivers all of a job's verdicts when
// SolveBatch returns, so each of its queries waits the whole call.
func (s *suiteRunner) pass(n int, t *tracer, tl *tally, sp *speedo) ([]outcome, error) {
	var all []outcome
	for ji, jx := range perm(s.seed, n, 0, len(s.jobs)) {
		j := s.jobs[jx]
		start := time.Now()
		var outs []outcome
		var err error
		if s.batch {
			outs, _, err = batchJob(j, t, batchWorkers)
			d := ms(time.Since(start))
			for range outs {
				tl.latencyMS = append(tl.latencyMS, d)
			}
		} else {
			outs, err = sweepJob(j, t, tl, perm(s.seed, n, 1+ji, len(j.keys)))
		}
		if err != nil {
			return nil, err
		}
		tl.jobMS = append(tl.jobMS, ms(time.Since(start)))
		all = append(all, outs...)
		sp.unitDone()
	}
	return all, nil
}

// editRunner replays the edit chain against a fresh warm store each pass.
type editRunner struct {
	seed  int64
	steps []*program
}

func setupEdit(seed int64) (runner, error) {
	return &editRunner{seed: seed, steps: editSources()}, nil
}

func (e *editRunner) close() {}

// pass runs every step as an IDE-style request: load the edited source, then
// per client open a warm session, answer each query from the store (replay)
// or solve it seeded by the surviving clauses, and save the session.
func (e *editRunner) pass(n int, t *tracer, tl *tally, sp *speedo) ([]outcome, error) {
	dir, err := os.MkdirTemp("", "tracerbench-warm-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	st := warm.Open(dir, nil)
	var all []outcome
	for _, step := range e.steps {
		start := time.Now()
		p, err := frontEnd(step.src, t)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", step.name, err)
		}
		for ci, spec := range driver.Clients() {
			queries := spec.Queries(p)
			outs, err := editClient(st, step.name, p, spec, queries, perm(e.seed, n, ci, len(queries)), t, tl)
			if err != nil {
				return nil, fmt.Errorf("%s %s: %w", step.name, spec.Name, err)
			}
			all = append(all, outs...)
		}
		tl.jobMS = append(tl.jobMS, ms(time.Since(start)))
		sp.unitDone()
	}
	return all, nil
}

// frontEnd loads src; traced, it times parsing and preparation apart.
func frontEnd(src string, t *tracer) (*driver.Program, error) {
	if t == nil {
		return driver.Load(src)
	}
	id := t.begin("parse", "", 0)
	ip, err := ir.Parse(src)
	t.end(id, 0)
	if err != nil {
		return nil, err
	}
	id = t.begin("prepare", "", 0)
	p, err := driver.Prepare(ip)
	t.end(id, 0)
	return p, err
}

// editClient answers one client's queries of one edit step through a warm
// session.
func editClient(st *warm.Store, name string, p *driver.Program, spec *driver.ClientSpec, queries []driver.GenQuery, order []int, t *tracer, tl *tally) ([]outcome, error) {
	id := t.begin("warm.session", spec.Name, 0)
	sess := st.Session(p, warm.Config{Client: warm.Client(spec.Name), K: beamK, MaxIters: maxIters})
	t.end(id, 0)
	params := spec.ParamNames(p)
	outs := make([]outcome, 0, len(order))
	for _, i := range order {
		key := queries[i].Key
		gk := goldenKey(name, spec.Name, key)
		t.count("warm.queries", 1)
		start := time.Now()
		if r, ok := sess.Replay(key); ok {
			tl.latencyMS = append(tl.latencyMS, ms(time.Since(start)))
			t.count("warm.replays", 1)
			outs = append(outs, outcome{key: gk, v: verdictOf(r, params), iters: r.Iterations})
			continue
		}
		id := t.begin("warm.seed", spec.Name, 0)
		seed := sess.SeedFor(key)
		t.end(id, int64(len(seed)))
		pr := spec.Job(p, i, beamK)
		opts := solveOpts(t)
		opts.Seed = seed
		solveID := t.begin("solve", spec.Name, 0)
		opts.OnLearn = func(_ int, _ uset.Set, tr lang.Trace, cubes []core.ParamCube) {
			id := t.begin("warm.record", spec.Name, solveID)
			sess.RecordLearn(key, tr, cubes)
			t.end(id, 0)
		}
		r, err := core.Solve(t.wrapProblem(pr, spec.Name, solveID), opts)
		t.end(solveID, 0)
		if err != nil {
			return nil, fmt.Errorf("query %d: %w", i, err)
		}
		id = t.begin("warm.record", spec.Name, 0)
		sess.RecordResult(key, r)
		t.end(id, 0)
		tl.latencyMS = append(tl.latencyMS, ms(time.Since(start)))
		t.count("core.iterations", int64(r.Iterations))
		t.count("core.clauses", int64(r.Clauses))
		if len(seed) > 0 {
			t.count("warm.seeded_queries", 1)
			t.count("warm.seeded_cubes", int64(len(seed)))
			if r.Iterations <= 1 && (r.Status == core.Proved || r.Status == core.Impossible) {
				t.count("warm.one_iter", 1)
			}
		}
		outs = append(outs, outcome{key: gk, v: verdictOf(r, params), iters: r.Iterations})
	}
	id = t.begin("warm.save", spec.Name, 0)
	err := sess.Save()
	t.end(id, 0)
	if err != nil {
		return nil, fmt.Errorf("saving warm session: %w", err)
	}
	return outs, nil
}

// serveRunner replays the serve corpus against an in-process tracerd.
type serveRunner struct {
	seed int64
	svc  *service
	reqs []request
}

func setupServe(seed int64) (runner, error) {
	progs := suiteSources(serveBenches...)
	if err := load(progs); err != nil {
		return nil, err
	}
	svc, err := startService()
	if err != nil {
		return nil, err
	}
	var reqs []request
	for _, p := range progs {
		rs, err := requestsOf(jobsOf([]*program{p}))
		if err == nil && len(rs) == 0 {
			err = fmt.Errorf("%s has no queries", p.name)
		}
		if err != nil {
			svc.close()
			return nil, err
		}
		// Prime the server's program cache, so no timed request pays the
		// front end.
		if code, _, err := svc.post(rs[0].body); err != nil || code != http.StatusOK {
			svc.close()
			return nil, fmt.Errorf("priming %s: status %d: %v", p.name, code, err)
		}
		reqs = append(reqs, rs...)
	}
	return &serveRunner{seed: seed, svc: svc, reqs: reqs}, nil
}

func (s *serveRunner) close() { s.svc.close() }

func (s *serveRunner) pass(n int, t *tracer, tl *tally, _ *speedo) ([]outcome, error) {
	return s.svc.replay(s.reqs, perm(s.seed, n, 0, len(s.reqs)), t, tl), nil
}
