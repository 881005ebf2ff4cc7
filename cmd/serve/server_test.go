package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"
)

// startServer serves handler through newServer on a loopback listener, with
// ReadTimeout shortened to readTimeout, and returns the listen address.
func startServer(t *testing.T, handler http.Handler, readTimeout time.Duration) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := newServer(ln.Addr().String(), handler, context.Background())
	srv.ReadTimeout = readTimeout
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	return ln.Addr().String()
}

// TestNewServerTimeouts pins that the production server bounds header reads,
// whole-request reads and idle keep-alive connections.
func TestNewServerTimeouts(t *testing.T) {
	srv := newServer(":0", http.NotFoundHandler(), context.Background())
	if srv.ReadHeaderTimeout <= 0 || srv.ReadTimeout <= 0 || srv.IdleTimeout <= 0 {
		t.Fatalf("timeouts: header %v, read %v, idle %v; want all positive",
			srv.ReadHeaderTimeout, srv.ReadTimeout, srv.IdleTimeout)
	}
}

// TestStalledBodyIsClosed sends a request's headers and part of its body,
// then stalls: the server must give up on the body and close the connection
// once ReadTimeout has passed, instead of holding a handler in io.ReadAll.
func TestStalledBodyIsClosed(t *testing.T) {
	const readTimeout = 200 * time.Millisecond
	addr := startServer(t, newHandler(options{maxTrials: 10}), readTimeout)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	start := time.Now()
	fmt.Fprintf(conn, "POST /v1/runs HTTP/1.1\r\nHost: serve\r\nContent-Length: 100\r\n\r\n{\"name\":")
	conn.SetReadDeadline(start.Add(5 * time.Second))
	if _, err := io.Copy(io.Discard, conn); err != nil {
		t.Fatalf("connection with a stalled body still open after %v: %v", time.Since(start), err)
	}
	if elapsed := time.Since(start); elapsed > readTimeout+2*time.Second {
		t.Fatalf("stalled body held the connection for %v, ReadTimeout is %v", elapsed, readTimeout)
	}
}

// TestLongBatchOutlivesReadTimeout pins that ReadTimeout bounds only reading
// the request: net/http clears the read deadline once the body is read, so a
// batch that runs longer than ReadTimeout keeps its request context and
// returns 200 with every trial.
func TestLongBatchOutlivesReadTimeout(t *testing.T) {
	const readTimeout = 50 * time.Millisecond
	runs := newHandler(options{maxTrials: 100})
	// Holding the read body past the deadline before the real handler runs
	// makes the batch outlive ReadTimeout however fast the host is.
	slow := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, err := io.ReadAll(r.Body)
		if err != nil {
			t.Errorf("reading body: %v", err)
		}
		time.Sleep(4 * readTimeout)
		r.Body = io.NopCloser(bytes.NewReader(body))
		runs.ServeHTTP(w, r)
	})
	addr := startServer(t, slow, readTimeout)
	resp, err := http.Post("http://"+addr+"/v1/runs", "application/json",
		strings.NewReader(`{"name":"baseline","trials":20}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil && !errors.Is(err, io.EOF) {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200 (%s)", resp.StatusCode, out)
	}
	var got runResponse
	if err := json.Unmarshal(out, &got); err != nil {
		t.Fatal(err)
	}
	if got.Trials != 20 {
		t.Fatalf("batch ran %d of 20 trials", got.Trials)
	}
}
