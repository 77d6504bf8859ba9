// Command tracerd is the hardened solver daemon: an HTTP service that
// accepts solve requests (a serialized mini-IR program, a query, a budget),
// starts a request's batch round as soon as an executor is idle, coalesces
// compatible requests into shared rounds while every executor is busy, and
// survives overload, malformed input, and injected faults by degrading
// per-request instead of dying.
//
// Endpoints:
//
//	POST /solve    solve one query; see internal/server for the wire format
//	GET  /healthz  "ok", or 503 "draining" during shutdown
//	GET  /stats    JSON snapshot of the server.* counters
//
// Flags:
//
//	-addr :8791            listen address (use :0 for an ephemeral port; the
//	                       bound address is printed as "tracerd: listening on
//	                       <addr>", which scripts parse)
//	-batch-size 8          max requests per batch round (1 = no coalescing)
//	-queue-limit 256       accept-queue bound; beyond it requests get 429
//	-max-batches 4         concurrent batch rounds (executor pool size); the
//	                       dispatcher holds at most one full round per
//	                       executor while all are busy
//	-max-request-bytes N   request body cap (default 1MiB); larger bodies 400
//	-default-timeout 5s    per-request budget when the request names none
//	-max-timeout 60s       cap on any request's timeout_ms
//	-max-iters 1000        cap on any request's max_iters
//	-tenant-rps 0          per-tenant sustained requests/second (0 = off)
//	-tenant-burst 10       per-tenant burst size
//	-workers N             solver workers per batch round
//	-prog-cache 32         loaded-program LRU entries
//	-warm-dir DIR          mount a persistent warm-start store
//	-access-log FILE       NDJSON access log: per-request event streams, each
//	                       terminated by exactly one query_resolved, plus
//	                       server.* counter records; flushed on shutdown
//	-metrics               print aggregated counters/timers after shutdown
//	-chaos-seed N          deterministic fault injection seed (0 = off)
//	-chaos-rate 0.02       fraction of hook points that fire under chaos
//
// Shutdown: SIGTERM or SIGINT starts a graceful drain — new requests get
// 503, queued and in-flight requests finish, the access log flushes, and the
// process exits 0. A second signal (or -drain-timeout) forces in-flight
// solves to trip their budgets cooperatively; the exit is still clean.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"tracer/internal/faultinject"
	"tracer/internal/obs"
	"tracer/internal/server"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "tracerd:", err)
		os.Exit(1)
	}
}

func run() error {
	addr := flag.String("addr", ":8791", "listen address")
	batchSize := flag.Int("batch-size", 8, "max requests per batch round (1 = no coalescing)")
	queueLimit := flag.Int("queue-limit", 256, "accept-queue bound (beyond it: 429)")
	maxBatches := flag.Int("max-batches", 4, "concurrent batch rounds")
	maxReqBytes := flag.Int64("max-request-bytes", 1<<20, "request body size cap")
	defTimeout := flag.Duration("default-timeout", 5*time.Second, "per-request budget when unspecified")
	maxTimeout := flag.Duration("max-timeout", 60*time.Second, "cap on requested timeouts")
	maxIters := flag.Int("max-iters", 1000, "cap on requested CEGAR iterations")
	tenantRPS := flag.Float64("tenant-rps", 0, "per-tenant requests/second (0 = quotas off)")
	tenantBurst := flag.Int("tenant-burst", 10, "per-tenant burst")
	workers := flag.Int("workers", 0, "solver workers per batch round (0 = sequential)")
	progCache := flag.Int("prog-cache", 32, "loaded-program cache entries")
	warmDir := flag.String("warm-dir", "", "persistent warm-start store directory")
	accessLog := flag.String("access-log", "", "write the NDJSON access log to this file")
	metrics := flag.Bool("metrics", false, "print aggregated counters after shutdown")
	chaosSeed := flag.Int64("chaos-seed", 0, "deterministic fault injection seed (0 = off)")
	chaosRate := flag.Float64("chaos-rate", 0.02, "fraction of hook points that fire under chaos")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "grace period for in-flight work at shutdown")
	flag.Parse()

	var sinks []obs.Recorder
	if *accessLog != "" {
		nd, err := obs.CreateNDJSON(*accessLog)
		if err != nil {
			return err
		}
		defer func() {
			if err := nd.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "tracerd:", err)
			}
		}()
		sinks = append(sinks, nd)
	}
	var agg *obs.Agg
	if *metrics {
		agg = obs.NewAgg()
		sinks = append(sinks, agg)
	}

	var inj *faultinject.Injector
	if *chaosSeed != 0 {
		inj = faultinject.Seeded(*chaosSeed, *chaosRate)
		fmt.Fprintf(os.Stderr, "tracerd: chaos mode on (seed %d, rate %.3f)\n",
			*chaosSeed, *chaosRate)
	}

	srv := server.New(server.Config{
		BatchSize:            *batchSize,
		QueueLimit:           *queueLimit,
		MaxConcurrentBatches: *maxBatches,
		MaxRequestBytes:      *maxReqBytes,
		DefaultTimeout:       *defTimeout,
		MaxTimeout:           *maxTimeout,
		MaxIters:             *maxIters,
		TenantRPS:            *tenantRPS,
		TenantBurst:          *tenantBurst,
		Workers:              *workers,
		ProgCacheSize:        *progCache,
		WarmDir:              *warmDir,
		Recorder:             obs.Multi(sinks...),
		Inject:               inj,
	})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	// Scripts parse this line to learn the bound (possibly ephemeral) port.
	fmt.Printf("tracerd: listening on %s\n", ln.Addr())

	hs := &http.Server{Handler: srv.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	ctx, stop := signal.NotifyContext(context.Background(),
		os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
	}
	stop() // a second signal kills the process the default way

	fmt.Fprintln(os.Stderr, "tracerd: draining")
	dctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	// Drain the solve pipeline first (new arrivals 503 while the listener is
	// still up — clients see the structured rejection, not a reset), then
	// close the HTTP side.
	if err := srv.Shutdown(dctx); err != nil {
		fmt.Fprintln(os.Stderr, "tracerd: forced drain:", err)
	}
	if err := hs.Shutdown(dctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	if agg != nil {
		fmt.Print(agg.Render())
	}
	fmt.Fprintln(os.Stderr, "tracerd: drained, exiting")
	return nil
}
