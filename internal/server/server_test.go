package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"tracer/internal/core"
	"tracer/internal/driver"
	"tracer/internal/faultinject"
	"tracer/internal/obs"
)

// fixtureSrc is a small interprocedural program with one typestate and a few
// escape queries — enough to exercise both clients cheaply.
const fixtureSrc = `
global registry

class File {
  native method open(this)
  native method close(this)
}

class Conn {
  field buf
  method fill(this, b) {
    this.buf = b
    return this
  }
}

class Pool {
  method put(this, c) {
    if * {
      registry = c
    }
  }
}

class Main {
  method main(this) {
    var f, c, p, b, c2
    f = new File @ hFile
    f.open()
    f.close()
    c = new Conn @ hConn
    b = new Conn @ hBuf
    c2 = c.fill(b)
    p = new Pool @ hPool
    p.put(c)
    query qBuf local(b)
    query qPool local(p)
    query qFile state(f: closed)
  }
}
`

// newTestServer builds a started Server plus an httptest front end, torn
// down (drained) at test end.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("Shutdown: %v", err)
		}
		hs.Close()
	})
	return s, hs
}

// postJSON posts raw bytes to /solve and returns the status plus body.
func postJSON(t *testing.T, url string, body []byte) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url+"/solve", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /solve: %v", err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	return resp.StatusCode, data
}

// solve posts a SolveRequest and decodes the 200 response.
func solve(t *testing.T, url string, sr SolveRequest) SolveResponse {
	t.Helper()
	body, _ := json.Marshal(sr)
	status, data := postJSON(t, url, body)
	if status != http.StatusOK {
		t.Fatalf("POST /solve = %d, want 200; body %s", status, data)
	}
	var out SolveResponse
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatalf("bad response %s: %v", data, err)
	}
	return out
}

// localTruth solves every fixture query directly through core.Solve.
func localTruth(t *testing.T, src string, k int) map[string]core.Result {
	t.Helper()
	prog, err := driver.Load(src)
	if err != nil {
		t.Fatal(err)
	}
	truth := map[string]core.Result{}
	for i, q := range prog.TypestateQueries() {
		r, err := core.Solve(driver.ClientByName("typestate").Job(prog, i, k), core.Options{})
		if err != nil {
			t.Fatalf("truth %s: %v", q.ID, err)
		}
		truth["typestate/"+q.ID] = r
	}
	for i, q := range prog.EscapeQueries() {
		r, err := core.Solve(driver.ClientByName("escape").Job(prog, i, k), core.Options{})
		if err != nil {
			t.Fatalf("truth %s: %v", q.ID, err)
		}
		truth["escape/"+q.ID] = r
	}
	return truth
}

// TestSolveMatchesCore: every fixture query served over HTTP returns the
// same verdict and cost as a direct core.Solve.
func TestSolveMatchesCore(t *testing.T) {
	_, hs := newTestServer(t, Config{})
	truth := localTruth(t, fixtureSrc, 5)
	prog, _ := driver.Load(fixtureSrc)
	check := func(client, id string) {
		resp := solve(t, hs.URL, SolveRequest{
			Program: fixtureSrc, Client: client, Query: id,
		})
		want := truth[client+"/"+id]
		if resp.Status != want.Status.String() {
			t.Errorf("%s %s: status %s, want %s", client, id, resp.Status, want.Status)
		}
		if want.Status == core.Proved && resp.Cost != want.Abstraction.Len() {
			t.Errorf("%s %s: cost %d, want %d", client, id, resp.Cost, want.Abstraction.Len())
		}
		if resp.Batch.ID == "" || resp.Batch.Size < 1 {
			t.Errorf("%s %s: missing batch info %+v", client, id, resp.Batch)
		}
		if resp.Timing.TotalNS <= 0 || resp.Timing.SolveNS <= 0 {
			t.Errorf("%s %s: missing timings %+v", client, id, resp.Timing)
		}
	}
	for _, q := range prog.TypestateQueries() {
		check("typestate", q.ID)
	}
	for _, q := range prog.EscapeQueries() {
		check("escape", q.ID)
	}
}

// TestQuerySelectors: index ("#n") and position-independent key selectors
// resolve to the same query as the display ID.
func TestQuerySelectors(t *testing.T) {
	_, hs := newTestServer(t, Config{})
	prog, _ := driver.Load(fixtureSrc)
	q := prog.EscapeQueries()[0]
	byID := solve(t, hs.URL, SolveRequest{Program: fixtureSrc, Client: "escape", Query: q.ID})
	byKey := solve(t, hs.URL, SolveRequest{Program: fixtureSrc, Client: "escape", Query: q.Key})
	byIx := solve(t, hs.URL, SolveRequest{Program: fixtureSrc, Client: "escape", Query: "#0"})
	if byID.Status != byKey.Status || byID.Status != byIx.Status ||
		byID.Cost != byKey.Cost || byID.Cost != byIx.Cost {
		t.Errorf("selector mismatch: id=%+v key=%+v ix=%+v", byID, byKey, byIx)
	}
}

// TestCoalescing: compatible requests that arrive while every executor is
// busy share one batch round.
func TestCoalescing(t *testing.T) {
	inj := faultinject.New()
	inj.DelayAt(faultinject.SiteServerBatch, "b0", 300*time.Millisecond)
	s, hs := newTestServer(t, Config{BatchSize: 4, MaxConcurrentBatches: 1, Inject: inj})

	// A blocker request occupies the only executor in the delayed round b0.
	blocked := make(chan struct{})
	go func() {
		defer close(blocked)
		solve(t, hs.URL, SolveRequest{Program: fixtureSrc, Client: "escape", Query: "#0"})
	}()
	deadline := time.Now().Add(5 * time.Second)
	for s.Snapshot().InflightBatches == 0 {
		if time.Now().After(deadline) {
			t.Fatal("blocker never reached a batch round")
		}
		time.Sleep(time.Millisecond)
	}

	var wg sync.WaitGroup
	resps := make([]SolveResponse, 4)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Identical queries coalesce too — each request keeps its own
			// batch slot and response.
			resps[i] = solve(t, hs.URL, SolveRequest{
				Program: fixtureSrc, Client: "escape", Query: "#0",
			})
		}(i)
	}
	wg.Wait()
	<-blocked
	batches := map[string]int{}
	for _, r := range resps {
		batches[r.Batch.ID]++
	}
	// All four arrive while b0 holds the executor, so they wait as one full
	// group and run as the next round.
	if len(batches) != 1 {
		t.Fatalf("requests spread over %d batches (%v), want 1", len(batches), batches)
	}
	for _, r := range resps {
		if !r.Batch.Coalesced || r.Batch.Size != 4 {
			t.Errorf("batch info %+v, want coalesced size 4", r.Batch)
		}
	}
}

// TestIdleServerDoesNotWait: a lone request on an idle default server starts
// its round at once instead of waiting for compatible company.
func TestIdleServerDoesNotWait(t *testing.T) {
	_, hs := newTestServer(t, Config{})
	req := SolveRequest{Program: fixtureSrc, Client: "escape", Query: "#0"}
	solve(t, hs.URL, req) // loads the program into the cache
	resp := solve(t, hs.URL, req)
	// QueueNS runs from arrival to the round's start and includes decoding.
	if wait := time.Duration(resp.Timing.QueueNS - resp.Timing.DecodeNS); wait >= 15*time.Millisecond {
		t.Errorf("lone request waited %v between decode and its round, want under 15ms", wait)
	}
	if resp.Batch.Size != 1 || resp.Batch.Coalesced {
		t.Errorf("batch info %+v, want an uncoalesced round of 1", resp.Batch)
	}
}

// TestQueueFullSheds: with the executor pipeline saturated by delayed
// batches and a one-slot accept queue, excess arrivals get structured 429s
// with a Retry-After.
func TestQueueFullSheds(t *testing.T) {
	inj := faultinject.New()
	for i := 0; i < 16; i++ {
		inj.DelayAt(faultinject.SiteServerBatch, fmt.Sprintf("b%d", i), 300*time.Millisecond)
	}
	_, hs := newTestServer(t, Config{
		BatchSize:            1, // one request per round
		QueueLimit:           1,
		MaxConcurrentBatches: 1,
		Inject:               inj,
	})
	body, _ := json.Marshal(SolveRequest{Program: fixtureSrc, Client: "escape", Query: "#0"})
	const n = 8
	statuses := make([]int, n)
	bodies := make([][]byte, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			statuses[i], bodies[i] = postJSON(t, hs.URL, body)
		}(i)
		time.Sleep(20 * time.Millisecond) // establish arrival order
	}
	wg.Wait()
	shed := 0
	for i, st := range statuses {
		switch st {
		case http.StatusOK:
		case http.StatusTooManyRequests:
			shed++
			var er ErrorResponse
			if err := json.Unmarshal(bodies[i], &er); err != nil || er.Error == "" {
				t.Errorf("429 body %s not a structured error", bodies[i])
			}
			if er.RetryAfterMS <= 0 {
				t.Errorf("429 without retry_after_ms: %s", bodies[i])
			}
		default:
			t.Errorf("request %d: status %d, want 200 or 429", i, st)
		}
	}
	if shed == 0 {
		t.Error("no request was shed despite a saturated one-slot queue")
	}
}

// TestTenantQuota: a tenant over its token bucket is shed with 429 while
// other tenants still get through.
func TestTenantQuota(t *testing.T) {
	_, hs := newTestServer(t, Config{TenantRPS: 0.001, TenantBurst: 1})
	body, _ := json.Marshal(SolveRequest{
		Program: fixtureSrc, Client: "escape", Query: "#0", Tenant: "a",
	})
	if st, _ := postJSON(t, hs.URL, body); st != http.StatusOK {
		t.Fatalf("first request of tenant a = %d, want 200", st)
	}
	st, data := postJSON(t, hs.URL, body)
	if st != http.StatusTooManyRequests {
		t.Fatalf("second request of tenant a = %d (%s), want 429", st, data)
	}
	other, _ := json.Marshal(SolveRequest{
		Program: fixtureSrc, Client: "escape", Query: "#0", Tenant: "b",
	})
	if st, _ := postJSON(t, hs.URL, other); st != http.StatusOK {
		t.Fatalf("tenant b = %d, want 200", st)
	}
}

// TestRequestSiteFaults: injected faults on the admission path degrade the
// one targeted request — panic to Failed, trip to Exhausted — on HTTP 200.
func TestRequestSiteFaults(t *testing.T) {
	inj := faultinject.New()
	inj.PanicAt(faultinject.SiteServerRequest, "r0")
	inj.TripAt(faultinject.SiteServerRequest, "r1")
	cap := obs.NewCapture()
	_, hs := newTestServer(t, Config{Inject: inj, Recorder: cap})
	got := solve(t, hs.URL, SolveRequest{Program: fixtureSrc, Client: "escape", Query: "#0"})
	if got.Status != "failed" || got.Failure == "" {
		t.Errorf("r0 = %+v, want failed with failure detail", got)
	}
	got = solve(t, hs.URL, SolveRequest{Program: fixtureSrc, Client: "escape", Query: "#0"})
	if got.Status != "exhausted" {
		t.Errorf("r1 status = %s, want exhausted", got.Status)
	}
	// The third request is untouched and solves normally.
	got = solve(t, hs.URL, SolveRequest{Program: fixtureSrc, Client: "escape", Query: "#0"})
	if got.Status != "proved" && got.Status != "impossible" {
		t.Errorf("r2 status = %s, want a real verdict", got.Status)
	}
	assertAccessLogReconciles(t, cap.Events())
}

// TestStatsAndHealth: the sidecar endpoints serve the counters and the
// liveness verdict.
func TestStatsAndHealth(t *testing.T) {
	_, hs := newTestServer(t, Config{})
	solve(t, hs.URL, SolveRequest{Program: fixtureSrc, Client: "escape", Query: "#0"})

	resp, err := http.Get(hs.URL + "/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %v %v", resp, err)
	}
	resp.Body.Close()

	resp, err = http.Get(hs.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Accepted != 1 || st.Batches != 1 || st.Draining {
		t.Errorf("stats = %+v, want 1 accepted, 1 batch, not draining", st)
	}
}

// assertAccessLogReconciles checks the access-log contract: every accepted
// request id has exactly one terminal query_resolved event, and every
// rejected id has none.
func assertAccessLogReconciles(t *testing.T, events []obs.Event) {
	t.Helper()
	accepted := map[string]bool{}
	rejected := map[string]bool{}
	resolved := map[string]int{}
	for _, e := range events {
		switch e.Kind {
		case obs.RequestAccepted:
			accepted[e.Query] = true
		case obs.RequestRejected:
			rejected[e.Query] = true
		case obs.QueryResolved:
			resolved[e.Query]++
		}
	}
	for id := range accepted {
		if resolved[id] != 1 {
			t.Errorf("accepted request %s has %d query_resolved events, want 1", id, resolved[id])
		}
	}
	for id := range resolved {
		if !accepted[id] {
			t.Errorf("query_resolved for %s without request_accepted", id)
		}
	}
	for id := range rejected {
		if accepted[id] || resolved[id] > 0 {
			t.Errorf("rejected request %s also appears accepted/resolved", id)
		}
	}
}
