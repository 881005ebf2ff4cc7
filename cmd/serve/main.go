// Command serve is the reproduction's HTTP front end — the first external
// consumer of the public fairgossip API. It accepts version-1 scenario JSON
// and schedules Monte-Carlo batches:
//
//	POST /v1/runs      {"scenario": {...} | "name": "baseline", "trials": N}
//	GET  /v1/scenarios the registered scenario library, canonical wire form
//	GET  /healthz      liveness
//
// A run request executes trials of one scenario through Runner.Stream and
// returns the aggregate summary; the request context is the run's context,
// so a disconnecting client cancels its batch mid-flight instead of burning
// the worker pool.
//
//	go run ./cmd/serve -addr :8080 &
//	curl -s localhost:8080/v1/runs -d '{"name":"baseline","trials":100}'
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"
)

func main() {
	var (
		addr      = flag.String("addr", ":8080", "listen address")
		maxTrials = flag.Int("max-trials", 1_000_000, "largest trial count one request may schedule")
	)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	srv := newServer(*addr, newHandler(options{maxTrials: *maxTrials, baseCtx: ctx}), ctx)
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	log.Printf("serve: listening on %s (max trials per request: %d)", *addr, *maxTrials)

	select {
	case err := <-errc:
		log.Fatalf("serve: %v", err)
	case <-ctx.Done():
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
			log.Printf("serve: shutdown: %v", err)
		}
		fmt.Fprintln(os.Stderr, "serve: stopped")
	}
}

// newServer configures the HTTP server around handler. ReadTimeout bounds
// reading a whole request, body included, so a client that sends its headers
// and then stalls its body cannot hold a handler in io.ReadAll forever.
// net/http clears the read deadline once the handler has read the body, so a
// trial batch may run far longer than ReadTimeout. IdleTimeout bounds a
// keep-alive connection between requests.
func newServer(addr string, handler http.Handler, ctx context.Context) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           handler,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		IdleTimeout:       2 * time.Minute,
		// Request contexts derive from the signal context, so shutdown
		// cancels in-flight batches promptly mid-chunk instead of waiting
		// out a million-trial stream.
		BaseContext: func(net.Listener) context.Context { return ctx },
	}
}
