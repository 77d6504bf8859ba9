package server

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"tracer/internal/faultinject"
	"tracer/internal/obs"
)

// TestGracefulDrain is the graceful-degradation integration test: with a
// request in flight (held open by an injected batch delay), Shutdown must
// let it finish with a correct verdict, shed new arrivals with 503, return
// cleanly, and leave an access log in which every accepted request's stream
// terminates.
func TestGracefulDrain(t *testing.T) {
	inj := faultinject.New()
	inj.DelayAt(faultinject.SiteServerBatch, "b0", 400*time.Millisecond)
	// Drain must also survive its own chaos site.
	inj.PanicAt(faultinject.SiteServerDrain, "drain")
	capture := obs.NewCapture()
	s := New(Config{Inject: inj, Recorder: capture})
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()

	type result struct {
		status int
		body   []byte
	}
	inflight := make(chan result, 1)
	go func() {
		b, _ := json.Marshal(SolveRequest{Program: fixtureSrc, Client: "escape", Query: "#0"})
		st, body := postJSON(t, hs.URL, b)
		inflight <- result{st, body}
	}()

	// Wait for the request to actually be inside its (delayed) batch round.
	deadline := time.Now().Add(5 * time.Second)
	for s.Snapshot().InflightBatches == 0 {
		if time.Now().After(deadline) {
			t.Fatal("request never reached a batch round")
		}
		time.Sleep(5 * time.Millisecond)
	}

	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		shutdownDone <- s.Shutdown(ctx)
	}()

	// New arrivals during the drain get structured 503s.
	deadline = time.Now().Add(5 * time.Second)
	for {
		b, _ := json.Marshal(SolveRequest{Program: fixtureSrc, Client: "escape", Query: "#0"})
		st, body := postJSON(t, hs.URL, b)
		if st == http.StatusServiceUnavailable {
			var er ErrorResponse
			if err := json.Unmarshal(body, &er); err != nil || er.Error == "" {
				t.Fatalf("503 body %s is not a structured error", body)
			}
			if er.RetryAfterMS <= 0 {
				t.Errorf("503 without retry_after_ms: %s", body)
			}
			break
		}
		// The drain flag may not be set yet; 200 means we raced ahead of
		// Shutdown, which is fine — try again.
		if time.Now().After(deadline) {
			t.Fatal("drain never started rejecting new requests")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// The in-flight request still completes, correctly.
	select {
	case r := <-inflight:
		if r.status != http.StatusOK {
			t.Fatalf("in-flight request = %d (%s), want 200", r.status, r.body)
		}
		var resp SolveResponse
		if err := json.Unmarshal(r.body, &resp); err != nil {
			t.Fatal(err)
		}
		if resp.Status != "proved" && resp.Status != "impossible" {
			t.Errorf("in-flight request resolved %s, want a real verdict", resp.Status)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("in-flight request never completed")
	}

	if err := <-shutdownDone; err != nil {
		t.Fatalf("Shutdown = %v, want nil", err)
	}
	if !s.Snapshot().Draining {
		t.Error("stats do not report draining after shutdown")
	}
	// A second Shutdown is a harmless no-op.
	if err := s.Shutdown(context.Background()); err != nil {
		t.Errorf("second Shutdown = %v", err)
	}
	assertAccessLogReconciles(t, capture.Events())
}

// TestShutdownDeadlineForcesTrip: when the drain grace period expires, the
// in-flight solve is cancelled cooperatively — the request resolves (as
// exhausted) rather than being abandoned, and Shutdown reports the ctx
// error.
func TestShutdownDeadlineForcesTrip(t *testing.T) {
	// An injected pre-solve delay holds the round in flight well past the
	// 1ms drain grace below, so Shutdown's deadline fires while the request
	// is mid-batch and the forced-cancel path is actually exercised.
	inj := faultinject.New()
	inj.DelayAt(faultinject.SiteServerBatch, "b0", 300*time.Millisecond)
	s := New(Config{Inject: inj})
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()

	done := make(chan SolveResponse, 1)
	go func() {
		b, _ := json.Marshal(SolveRequest{Program: fixtureSrc, Client: "typestate", Query: "#0"})
		st, body := postJSON(t, hs.URL, b)
		if st != http.StatusOK {
			t.Errorf("in-flight request = %d (%s)", st, body)
			done <- SolveResponse{}
			return
		}
		var resp SolveResponse
		_ = json.Unmarshal(body, &resp)
		done <- resp
	}()
	deadline := time.Now().Add(5 * time.Second)
	for s.Snapshot().InflightBatches == 0 {
		if time.Now().After(deadline) {
			t.Fatal("request never reached a batch round")
		}
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	err := s.Shutdown(ctx)
	resp := <-done
	// Either the solve finished under the wire (nil error, real verdict) or
	// it was forced (deadline error, exhausted verdict) — both are clean
	// outcomes; what must not happen is an abandoned request or a non-ctx
	// error.
	if err != nil && err != context.DeadlineExceeded {
		t.Fatalf("Shutdown = %v", err)
	}
	if resp.Status == "" {
		t.Fatal("in-flight request abandoned during forced drain")
	}
}
