// Command traceload is the load generator for tracerd: it replays queries
// from the internal/bench corpora against a running daemon at configurable
// concurrency and request rate, retries shed requests (429/503) with capped
// exponential backoff and seeded jitter, and reports per-status counts,
// latency percentiles, throughput, and the batch rounds the daemon ran the
// answered requests in. With -verify it computes local ground truth for every
// replayed query and fails when the daemon returns a wrong verdict — the
// check the chaos harness relies on: under fault injection a request may
// degrade to failed/exhausted or be shed, but a proved/impossible answer
// must never be wrong.
//
// Flags:
//
//	-addr HOST:PORT        tracerd address (required)
//	-bench tsp             corpus to replay (a name from the bench suite)
//	-client typestate      typestate | escape | nullness
//	-k 5                   beam width sent with every request
//	-n 64                  total requests to send
//	-concurrency 8         in-flight request cap
//	-qps 0                 target request rate (0 = as fast as possible)
//	-queries 0             replay only the first N queries of the corpus
//	-request-timeout 10s   per-request solver budget (timeout_ms)
//	-http-timeout 30s      HTTP client timeout per attempt
//	-max-retries 8         retry budget per request for 429/503/transport
//	-backoff 50ms          initial retry backoff (doubles per retry)
//	-backoff-cap 2s        backoff ceiling
//	-seed 1                jitter/backoff randomization seed
//	-tenant ""             X-Tenant header value
//	-verify                check proved/impossible verdicts and costs
//	                       against local core.Solve ground truth
//	-require-success       exit nonzero unless every request ends HTTP 200
//	                       with a non-failed solver status
//
// Exit status: 0 on a clean run; 1 on wrong verdicts, transport exhaustion,
// or (-require-success) any failed/shed request.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"tracer/internal/bench"
	"tracer/internal/core"
	"tracer/internal/driver"
	"tracer/internal/server"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "traceload:", err)
		os.Exit(1)
	}
}

type options struct {
	addr           string
	benchName      string
	client         string
	k              int
	n              int
	concurrency    int
	qps            float64
	maxQueries     int
	requestTimeout time.Duration
	httpTimeout    time.Duration
	maxRetries     int
	backoff        time.Duration
	backoffCap     time.Duration
	seed           int64
	tenant         string
	verify         bool
	requireSuccess bool
}

// outcome is the final fate of one replayed request.
type outcome struct {
	httpStatus   int    // 0 = transport failure after retries
	solverStatus string // for 200s
	batch        server.BatchInfo
	wrongVerdict bool
	latency      time.Duration // arrival-to-final-answer, retries included
	retries      int
}

type truth struct {
	status string
	cost   int
}

func run() error {
	var o options
	flag.StringVar(&o.addr, "addr", "", "tracerd address (host:port)")
	flag.StringVar(&o.benchName, "bench", "tsp", "bench corpus to replay")
	flag.StringVar(&o.client, "client", "typestate", "client: "+strings.Join(driver.ClientNames(), "|"))
	flag.IntVar(&o.k, "k", 5, "beam width")
	flag.IntVar(&o.n, "n", 64, "total requests")
	flag.IntVar(&o.concurrency, "concurrency", 8, "in-flight request cap")
	flag.Float64Var(&o.qps, "qps", 0, "target request rate (0 = unpaced)")
	flag.IntVar(&o.maxQueries, "queries", 0, "replay only the first N corpus queries (0 = all)")
	flag.DurationVar(&o.requestTimeout, "request-timeout", 10*time.Second, "per-request solver budget")
	flag.DurationVar(&o.httpTimeout, "http-timeout", 30*time.Second, "HTTP timeout per attempt")
	flag.IntVar(&o.maxRetries, "max-retries", 8, "retries per request on 429/503/transport errors")
	flag.DurationVar(&o.backoff, "backoff", 50*time.Millisecond, "initial retry backoff")
	flag.DurationVar(&o.backoffCap, "backoff-cap", 2*time.Second, "backoff ceiling")
	flag.Int64Var(&o.seed, "seed", 1, "jitter seed")
	flag.StringVar(&o.tenant, "tenant", "", "X-Tenant header")
	flag.BoolVar(&o.verify, "verify", false, "verify verdicts against local ground truth")
	flag.BoolVar(&o.requireSuccess, "require-success", false, "fail unless every request succeeds")
	flag.Parse()

	if o.addr == "" {
		return fmt.Errorf("-addr is required")
	}
	spec := driver.ClientByName(o.client)
	if spec == nil {
		return fmt.Errorf("unknown -client %q (want %s)", o.client, strings.Join(driver.ClientNames(), "|"))
	}
	cfg, err := findBench(o.benchName)
	if err != nil {
		return err
	}
	b := bench.MustLoad(cfg)
	nq := len(spec.Queries(b.Prog))
	if nq == 0 {
		return fmt.Errorf("bench %s has no %s queries", o.benchName, o.client)
	}
	if o.maxQueries > 0 && o.maxQueries < nq {
		nq = o.maxQueries
	}

	var truths []truth
	if o.verify {
		fmt.Fprintf(os.Stderr, "traceload: computing ground truth for %d queries\n", nq)
		truths = groundTruth(b, spec, o, nq)
	}

	fmt.Fprintf(os.Stderr, "traceload: %d requests, %d queries of %s/%s, concurrency %d\n",
		o.n, nq, o.benchName, o.client, o.concurrency)
	start := time.Now()
	outcomes := fire(b, o, nq, truths)
	return report(o, outcomes, time.Since(start))
}

func findBench(name string) (bench.Config, error) {
	var names []string
	for _, c := range bench.Suite() {
		if c.Name == name {
			return c, nil
		}
		names = append(names, c.Name)
	}
	return bench.Config{}, fmt.Errorf("unknown bench %q (want one of %s)",
		name, strings.Join(names, "|"))
}

// groundTruth solves each replayed query locally with the same per-query
// budget the daemon will get.
func groundTruth(b *bench.Benchmark, spec *driver.ClientSpec, o options, nq int) []truth {
	truths := make([]truth, nq)
	for i := 0; i < nq; i++ {
		job := spec.Job(b.Prog, i, o.k)
		r, err := core.Solve(job, core.Options{Timeout: o.requestTimeout})
		if err != nil {
			truths[i] = truth{status: "failed"}
			continue
		}
		truths[i] = truth{status: r.Status.String(), cost: r.Abstraction.Len()}
	}
	return truths
}

// fire replays o.n requests round-robin over the first nq corpus queries.
func fire(b *bench.Benchmark, o options, nq int, truths []truth) []outcome {
	client := &http.Client{
		Timeout: o.httpTimeout,
		Transport: &http.Transport{
			MaxIdleConns:        o.concurrency,
			MaxIdleConnsPerHost: o.concurrency,
		},
	}
	outcomes := make([]outcome, o.n)
	var next atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < o.concurrency; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(o.seed + int64(worker)))
			for {
				i := int(next.Add(1) - 1)
				if i >= o.n {
					return
				}
				if o.qps > 0 {
					// Pace against the global schedule: request i is due at
					// start + i/qps.
					due := start.Add(time.Duration(float64(i) / o.qps * float64(time.Second)))
					if d := time.Until(due); d > 0 {
						time.Sleep(d)
					}
				}
				outcomes[i] = o.one(client, rng, b, i%nq, truths)
			}
		}(w)
	}
	wg.Wait()
	return outcomes
}

// one sends a single request, retrying shed (429/503) and transport-failed
// attempts with capped exponential backoff, jittered and honoring the
// server's Retry-After when it is shorter than the cap.
func (o options) one(client *http.Client, rng *rand.Rand, b *bench.Benchmark, qix int, truths []truth) outcome {
	body, _ := json.Marshal(server.SolveRequest{
		Program:   b.Source,
		Client:    o.client,
		Query:     fmt.Sprintf("#%d", qix),
		K:         o.k,
		TimeoutMS: int64(o.requestTimeout / time.Millisecond),
		Tenant:    o.tenant,
	})
	start := time.Now()
	var out outcome
	for attempt := 0; ; attempt++ {
		status, resp, retryMS, err := o.post(client, body)
		out.httpStatus = status
		out.latency = time.Since(start)
		switch {
		case err == nil && status == http.StatusOK:
			out.solverStatus = resp.Status
			out.batch = resp.Batch
			if truths != nil && (resp.Status == "proved" || resp.Status == "impossible") {
				t := truths[qix]
				if resp.Status != t.status || (resp.Status == "proved" && resp.Cost != t.cost) {
					out.wrongVerdict = true
					fmt.Fprintf(os.Stderr,
						"traceload: WRONG VERDICT query #%d: got %s cost %d, want %s cost %d\n",
						qix, resp.Status, resp.Cost, t.status, t.cost)
				}
			}
			return out
		case err == nil && status != http.StatusTooManyRequests &&
			status != http.StatusServiceUnavailable:
			// 400 and friends: not retryable.
			return out
		}
		if attempt >= o.maxRetries {
			return out
		}
		out.retries++
		d := o.backoff << attempt
		if d > o.backoffCap || d <= 0 {
			d = o.backoffCap
		}
		if server := time.Duration(retryMS) * time.Millisecond; server > 0 && server < d {
			d = server
		}
		// Full jitter: a uniformly random fraction of the computed delay
		// decorrelates the retry herd after a shed burst.
		time.Sleep(time.Duration(rng.Int63n(int64(d) + 1)))
	}
}

// post sends one attempt. status 0 means a transport failure.
func (o options) post(client *http.Client, body []byte) (int, *server.SolveResponse, int64, error) {
	req, err := http.NewRequest(http.MethodPost, "http://"+o.addr+"/solve",
		bytes.NewReader(body))
	if err != nil {
		return 0, nil, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	if o.tenant != "" {
		req.Header.Set("X-Tenant", o.tenant)
	}
	hr, err := client.Do(req)
	if err != nil {
		return 0, nil, 0, err
	}
	defer hr.Body.Close()
	data, err := io.ReadAll(io.LimitReader(hr.Body, 1<<22))
	if err != nil {
		return 0, nil, 0, err
	}
	if hr.StatusCode == http.StatusOK {
		var resp server.SolveResponse
		if jerr := json.Unmarshal(data, &resp); jerr != nil {
			return 0, nil, 0, jerr
		}
		return hr.StatusCode, &resp, 0, nil
	}
	var eresp server.ErrorResponse
	_ = json.Unmarshal(data, &eresp)
	return hr.StatusCode, nil, eresp.RetryAfterMS, nil
}

// report prints the final per-status, latency, throughput and round-size
// summary and decides the exit status. Round sizes are averaged over the
// HTTP 200 responses, as each reports the size of the round it ran in.
func report(o options, outcomes []outcome, wall time.Duration) error {
	httpCounts := map[int]int{}
	solverCounts := map[string]int{}
	var lat []time.Duration
	retries, wrong := 0, 0
	roundSizes, coalesced := 0, 0
	for _, out := range outcomes {
		httpCounts[out.httpStatus]++
		if out.solverStatus != "" {
			solverCounts[out.solverStatus]++
		}
		if out.httpStatus == http.StatusOK {
			roundSizes += out.batch.Size
			if out.batch.Coalesced {
				coalesced++
			}
		}
		lat = append(lat, out.latency)
		retries += out.retries
		if out.wrongVerdict {
			wrong++
		}
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	pct := func(p float64) time.Duration {
		if len(lat) == 0 {
			return 0
		}
		i := int(p * float64(len(lat)-1))
		return lat[i]
	}

	fmt.Printf("traceload: %d requests, %d retries\n", len(outcomes), retries)
	var hs []int
	for s := range httpCounts {
		hs = append(hs, s)
	}
	sort.Ints(hs)
	for _, s := range hs {
		label := fmt.Sprintf("HTTP %d", s)
		if s == 0 {
			label = "transport failure"
		}
		fmt.Printf("  %-18s %d\n", label, httpCounts[s])
	}
	var ss []string
	for s := range solverCounts {
		ss = append(ss, s)
	}
	sort.Strings(ss)
	for _, s := range ss {
		fmt.Printf("  status %-11s %d\n", s, solverCounts[s])
	}
	fmt.Printf("  latency p50 %v  p90 %v  p99 %v  max %v\n",
		pct(0.50).Round(time.Millisecond), pct(0.90).Round(time.Millisecond),
		pct(0.99).Round(time.Millisecond), pct(1.0).Round(time.Millisecond))
	fmt.Printf("  throughput %.1f req/s over %v\n",
		float64(len(outcomes))/wall.Seconds(), wall.Round(time.Millisecond))
	if ok := httpCounts[http.StatusOK]; ok > 0 {
		fmt.Printf("  rounds mean size %.2f, coalesced %.1f%% of %d answered\n",
			float64(roundSizes)/float64(ok), 100*float64(coalesced)/float64(ok), ok)
	}
	if wrong > 0 {
		return fmt.Errorf("%d wrong verdicts", wrong)
	}
	if o.requireSuccess {
		bad := 0
		for _, out := range outcomes {
			if out.httpStatus != http.StatusOK || out.solverStatus == "failed" {
				bad++
			}
		}
		if bad > 0 {
			return fmt.Errorf("%d of %d requests did not succeed", bad, len(outcomes))
		}
	}
	if httpCounts[0] > 0 {
		return fmt.Errorf("%d transport failures", httpCounts[0])
	}
	return nil
}
