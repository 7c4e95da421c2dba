// Command flashramd is the placement-as-a-service daemon: a
// long-running HTTP/JSON server wrapping the staged optimization
// pipeline (core.Session) behind a cross-request, content-addressed
// artifact store, so identical stage inputs from different requests and
// tenants are computed once and shared.
//
//	flashramd -addr :8377                 serve until SIGTERM/SIGINT
//
// Endpoints (see README "Run as a service" for curl examples):
//
//	POST /v1/optimize  one pipeline run → the same Report JSON document
//	                   `flashram -json` emits (byte-identical)
//	POST /v1/sweep     many runs → NDJSON stream in request order
//	GET  /healthz      liveness; 503 once draining
//	GET  /statsz       request counters + hit/miss/eviction ledger
//
// On SIGTERM (or SIGINT) the daemon drains gracefully: health flips to
// 503 so load balancers stop routing here, new optimization requests
// are rejected, in-flight ones run to completion (bounded by -drain),
// and the process exits 0.
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"syscall"
	"time"

	"repro/internal/cliutil"
	"repro/internal/service"
)

func main() {
	var (
		addr     = flag.String("addr", ":8377", "listen address")
		workers  = flag.Int("workers", 0, "admission slots / sweep pool width (0 = GOMAXPROCS, min 2)")
		sessions = flag.Int("cache", 0, "max sessions in the cross-request store (0 = default 64)")
		reqTO    = flag.Duration("reqtimeout", 0, "default per-request deadline (0 = none; requests may set timeout_ms)")
		drain    = flag.Duration("drain", 15*time.Second, "graceful-drain bound after SIGTERM/SIGINT")
	)
	flag.Parse()

	srv := service.New(service.Config{
		Workers:        *workers,
		MaxSessions:    *sessions,
		DefaultTimeout: *reqTO,
	})
	httpSrv := &http.Server{
		Addr:    *addr,
		Handler: srv.Handler(),
	}

	// One shared root-context constructor with the CLIs: the signals
	// that cancel a sweep mid-figure start the daemon's drain.
	ctx, stop := cliutil.SignalContext(context.Background(), 0, os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() {
		fmt.Fprintf(os.Stderr, "flashramd: listening on %s\n", *addr)
		errc <- httpSrv.ListenAndServe()
	}()

	select {
	case err := <-errc:
		fatal(err)
	case <-ctx.Done():
	}
	fmt.Fprintf(os.Stderr, "flashramd: draining (up to %v)\n", *drain)
	srv.StartDrain()
	stop() // a second signal now kills the process the default way
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		fatal(fmt.Errorf("drain: %w", err))
	}
	st := srv.Stats()
	fmt.Fprintf(os.Stderr, "flashramd: drained; served %d requests (%d ok), store %d hits / %d misses / %d evictions\n",
		st.Requests.Total, st.Requests.OK, st.Store.Hits, st.Store.Misses, st.Store.Evictions)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "flashramd:", err)
	os.Exit(1)
}
