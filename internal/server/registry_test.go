package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"strings"
	"testing"
	"time"

	"tracer/internal/core"
	"tracer/internal/driver"
)

// TestBogusClientFailsRoundWithoutWarmSession is the warm-store misrouting
// regression test: a request whose client kind is not registered must fail
// its round with "invalid client" and must never open a warm-store session.
// Before the fix, runBatch's dispatch fell through to the escape batch and
// its wire-to-warm client mapping sent any unknown kind to warm.Escape, so a
// forged client silently solved against — and wrote snapshots into — the
// escape warm store.
func TestBogusClientFailsRoundWithoutWarmSession(t *testing.T) {
	warmDir := t.TempDir()
	s := newDecodeServer2(t, Config{WarmDir: warmDir})
	req, err := s.decode(validBody(t))
	if err != nil {
		t.Fatal(err)
	}
	req.client = "bogus"
	req.id = "q0"
	req.arrival = time.Now()
	req.deadline = req.arrival.Add(time.Minute)

	s.runBatch([]*request{req})
	resp := <-req.done

	if resp.Status != core.Failed.String() {
		t.Fatalf("bogus client resolved %q, want %q", resp.Status, core.Failed)
	}
	if !strings.Contains(resp.Failure, "invalid client") {
		t.Fatalf("failure %q does not mention invalid client", resp.Failure)
	}
	entries, err := os.ReadDir(warmDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("bogus client wrote %d warm-store file(s); a session was opened", len(entries))
	}
}

// newDecodeServer2 is newDecodeServer with a config.
func newDecodeServer2(t testing.TB, cfg Config) *Server {
	s := New(cfg)
	t.Cleanup(func() { _ = s.Shutdown(t.Context()) })
	return s
}

// TestBogusClientIs400 asserts the HTTP-level contract of the same bug: an
// unregistered client is a structured 400 naming the invalid client, not an
// admitted request.
func TestBogusClientIs400(t *testing.T) {
	_, hs := newTestServer(t, Config{})
	body, _ := json.Marshal(SolveRequest{Program: fixtureSrc, Client: "bogus", Query: "#0"})
	st, data := postJSON(t, hs.URL, body)
	if st != http.StatusBadRequest {
		t.Fatalf("bogus client = %d (%s), want 400", st, data)
	}
	var er ErrorResponse
	if err := json.Unmarshal(data, &er); err != nil || !strings.Contains(er.Error, "invalid client") {
		t.Fatalf("400 body %s does not name the invalid client", data)
	}
}

// TestClientsRoundTripWire iterates the driver registry and round-trips
// every registered client through the server wire format: each client's
// generated queries resolve by position, by ID, and by key; the decoded
// request renders the same IDs, keys, and parameter names the registry
// reports; and a positional request solves end to end over HTTP.
func TestClientsRoundTripWire(t *testing.T) {
	s, hs := newTestServer(t, Config{})
	prog, err := driver.Load(fixtureSrc)
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range driver.Clients() {
		t.Run(spec.Name, func(t *testing.T) {
			qs := spec.Queries(prog)
			if len(qs) == 0 {
				t.Fatalf("client %s generates no queries on the fixture", spec.Name)
			}
			params := spec.ParamNames(prog)
			for i, q := range qs {
				for _, sel := range []string{fmt.Sprintf("#%d", i), q.ID, q.Key} {
					body, _ := json.Marshal(SolveRequest{
						Program: fixtureSrc, Client: spec.Name, Query: sel})
					req, err := s.decode(body)
					if err != nil {
						t.Fatalf("decode(%s, %q): %v", spec.Name, sel, err)
					}
					if req.queryIx != i {
						t.Fatalf("selector %q resolved to %d, want %d", sel, req.queryIx, i)
					}
					if req.queryID() != q.ID || req.queryKey() != q.Key {
						t.Fatalf("round-trip %q: got (%s, %s), want (%s, %s)",
							sel, req.queryID(), req.queryKey(), q.ID, q.Key)
					}
					for pi, name := range params {
						if got := req.paramName(pi); got != name {
							t.Fatalf("paramName(%d) = %q, want %q", pi, got, name)
						}
					}
				}
			}
			resp := solve(t, hs.URL, SolveRequest{
				Program: fixtureSrc, Client: spec.Name, Query: "#0", TimeoutMS: 30000})
			if resp.Status != core.Proved.String() && resp.Status != core.Impossible.String() {
				t.Fatalf("query #0 resolved %q over HTTP", resp.Status)
			}
		})
	}
}
