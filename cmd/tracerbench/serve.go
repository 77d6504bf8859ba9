package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"tracer/internal/server"
)

// serveClients is the number of closed-loop clients: callers that each wait
// for a reply before sending their next request.
const serveClients = 2

// service is an in-process tracerd: server.New with tracerd's default
// configuration, serving HTTP on a loopback listener.
type service struct {
	srv    *server.Server
	hs     *http.Server
	url    string
	client *http.Client
	served chan error
}

func startService() (*service, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listening: %w", err)
	}
	srv := server.New(server.Config{})
	s := &service{
		srv: srv,
		hs:  &http.Server{Handler: srv.Handler()},
		url: "http://" + ln.Addr().String() + "/solve",
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: serveClients,
		}},
		served: make(chan error, 1),
	}
	go func() { s.served <- s.hs.Serve(ln) }()
	return s, nil
}

// close drains the server as tracerd does on SIGTERM, then waits for the
// HTTP side to stop.
func (s *service) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = s.srv.Shutdown(ctx) // a forced drain still finishes every request
	_ = s.hs.Shutdown(ctx)  // nothing is in flight once the server drained
	<-s.served
	s.client.CloseIdleConnections()
}

// request is one prepared POST /solve body and the query it names.
type request struct {
	key    string
	client string
	body   []byte
}

// requestsOf prepares one request per query of every job.
func requestsOf(jobs []*job) ([]request, error) {
	var out []request
	for _, j := range jobs {
		for i, key := range j.keys {
			body, err := json.Marshal(server.SolveRequest{
				Program:   j.prog.src,
				Client:    j.spec.Name,
				Query:     fmt.Sprintf("#%d", i),
				K:         beamK,
				MaxIters:  maxIters,
				TimeoutMS: 60_000,
			})
			if err != nil {
				return nil, err
			}
			out = append(out, request{key: goldenKey(j.prog.name, j.spec.Name, key), client: j.spec.Name, body: body})
		}
	}
	return out, nil
}

// post sends one request and decodes the 200 body.
func (s *service) post(body []byte) (int, *server.SolveResponse, error) {
	resp, err := s.client.Post(s.url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return resp.StatusCode, nil, nil
	}
	var sr server.SolveResponse
	if err := json.Unmarshal(data, &sr); err != nil {
		return 0, nil, fmt.Errorf("decoding response: %w", err)
	}
	return resp.StatusCode, &sr, nil
}

// replay sends reqs in the given order from serveClients closed-loop
// clients and returns one outcome per request. Latencies go to tl and, when
// traced, each response's timing block to t.
func (s *service) replay(reqs []request, order []int, t *tracer, tl *tally) []outcome {
	outs := make([]outcome, len(order))
	lat := make([]float64, len(order))
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				n := int(next.Add(1) - 1)
				if n >= len(order) {
					return
				}
				r := reqs[order[n]]
				id := t.begin("request", r.client, 0)
				start := time.Now()
				code, sr, err := s.post(r.body)
				d := time.Since(start)
				t.end(id, 0)
				lat[n] = float64(d) / 1e6
				switch {
				case err != nil:
					outs[n] = outcome{key: r.key, v: verdict{status: "error: " + err.Error()}}
				case sr == nil:
					outs[n] = outcome{key: r.key, v: verdict{status: fmt.Sprintf("http %d", code)}}
				default:
					outs[n] = outcome{key: r.key, v: namedVerdict(sr.Status, sr.Abstraction), iters: sr.Iterations}
					t.serverSample(serverSample{
						decodeNS: sr.Timing.DecodeNS, queueNS: sr.Timing.QueueNS,
						solveNS: sr.Timing.SolveNS, totalNS: sr.Timing.TotalNS,
						latencyNS: int64(d), batchSize: sr.Batch.Size, coalesced: sr.Batch.Coalesced,
					})
				}
			}
		}()
	}
	wg.Wait()
	if tl != nil {
		tl.latencyMS = append(tl.latencyMS, lat...)
		tl.jobMS = append(tl.jobMS, lat...)
	}
	return outs
}
