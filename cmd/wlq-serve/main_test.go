package main

import (
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"os"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"wlq/internal/core/eval"
)

func TestSplitLogArg(t *testing.T) {
	tests := []struct {
		arg, name, spec string
	}{
		{"fig3", "fig3", "fig3"},
		{"clinic:100:7", "clinic", "clinic:100:7"},
		{"referrals.jsonl", "referrals", "referrals.jsonl"},
		{"/data/referrals.jsonl", "referrals", "/data/referrals.jsonl"},
		{"./logs/audit.txt", "audit", "./logs/audit.txt"},
		{"prod=clinic:100:7", "prod", "clinic:100:7"},
		{"mylog=/data/x.jsonl", "mylog", "/data/x.jsonl"},
	}
	for _, tt := range tests {
		name, spec := splitLogArg(tt.arg)
		if name != tt.name || spec != tt.spec {
			t.Errorf("splitLogArg(%q) = (%q, %q), want (%q, %q)",
				tt.arg, name, spec, tt.name, tt.spec)
		}
	}
}

// syncBuffer is a goroutine-safe writer the server goroutine logs into.
type syncBuffer struct {
	mu sync.Mutex
	sb strings.Builder
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.sb.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.sb.String()
}

func TestRunArgErrors(t *testing.T) {
	ctx := context.Background()
	var buf syncBuffer
	if err := run(ctx, nil, &buf); err == nil {
		t.Error("run without -log succeeded")
	}
	if err := run(ctx, []string{"-log", "does-not-exist.jsonl"}, &buf); err == nil {
		t.Error("run with a missing log file succeeded")
	}
	if err := run(ctx, []string{"-log", "fig3", "-addr", "999.999.999.999:1"}, &buf); err == nil {
		t.Error("run with an unlistenable address succeeded")
	}
	// The in-process shard tier is gone, and its flags with it; so are
	// request hedging and the trace knobs only one value of was in use.
	for _, flag := range []string{"-shards", "-shard-attempts", "-hedge-after", "-trace-propagation", "-max-trace-spans"} {
		err := run(ctx, []string{"-log", "fig3", flag, "2"}, &buf)
		if err == nil || !strings.Contains(err.Error(), "flag provided but not defined: "+flag) {
			t.Errorf("%s: err = %v, want an unknown-flag error", flag, err)
		}
	}
}

var servingRE = regexp.MustCompile(`serving on ([\d.:\[\]]+)`)

// waitServing blocks until run's listener is up and returns its address.
func waitServing(t *testing.T, buf *syncBuffer, done <-chan error) string {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if m := servingRE.FindStringSubmatch(buf.String()); m != nil {
			return m[1]
		}
		select {
		case err := <-done:
			t.Fatalf("server exited early: %v\n%s", err, buf.String())
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("server never started:\n%s", buf.String())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestServeEndToEndAndGracefulShutdown(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var buf syncBuffer
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{"-log", "fig3", "-addr", "127.0.0.1:0"}, &buf)
	}()
	addr := waitServing(t, &buf, done)

	resp, err := http.Post("http://"+addr+"/v1/query", "application/json",
		strings.NewReader(`{"log":"fig3","query":"UpdateRefer -> GetReimburse"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query status %d", resp.StatusCode)
	}
	var body struct {
		Count     int `json:"count"`
		Incidents []struct {
			WID  uint64   `json:"wid"`
			Seqs []uint64 `json:"seqs"`
		} `json:"incidents"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	// The paper's Example 3: exactly {wid=2:{5,9}}.
	if body.Count != 1 || body.Incidents[0].WID != 2 {
		t.Fatalf("unexpected result: %+v", body)
	}

	mresp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	var metrics struct {
		QueriesTotal uint64 `json:"queries_total"`
	}
	if err := json.NewDecoder(mresp.Body).Decode(&metrics); err != nil {
		t.Fatal(err)
	}
	if metrics.QueriesTotal != 1 {
		t.Errorf("queries_total = %d, want 1", metrics.QueriesTotal)
	}

	// Graceful shutdown: cancelling the context must end run without error.
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("shutdown returned %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("server did not shut down within the drain window")
	}
	if !strings.Contains(buf.String(), "shutting down") {
		t.Errorf("no shutdown log line:\n%s", buf.String())
	}
	if !strings.Contains(buf.String(), `loaded "fig3"`) {
		t.Errorf("no load log line:\n%s", buf.String())
	}
}

// TestShutdownCompletesInFlightAndRefusesNew pins the drain contract: once
// shutdown begins, the listener stops accepting new connections, but a query
// already being evaluated still completes with 200.
func TestShutdownCompletesInFlightAndRefusesNew(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var buf syncBuffer
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{"-log", "fig3", "-addr", "127.0.0.1:0", "-drain", "5s"}, &buf)
	}()
	addr := waitServing(t, &buf, done)

	// Park the first evaluation worker inside the engine so the request is
	// provably in flight when shutdown starts.
	entered := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	eval.SetEvalHook(func(uint64) {
		once.Do(func() {
			close(entered)
			<-release
		})
	})
	defer eval.SetEvalHook(nil)

	type result struct {
		status int
		err    error
	}
	resCh := make(chan result, 1)
	go func() {
		resp, err := http.Post("http://"+addr+"/v1/query", "application/json",
			strings.NewReader(`{"log":"fig3","query":"UpdateRefer -> GetReimburse"}`))
		if err != nil {
			resCh <- result{0, err}
			return
		}
		defer resp.Body.Close()
		io.Copy(io.Discard, resp.Body)
		resCh <- result{resp.StatusCode, nil}
	}()

	<-entered // the query is mid-evaluation
	cancel()  // equivalent of SIGTERM: begin draining

	// The listener must close: fresh connections get refused.
	deadline := time.Now().Add(5 * time.Second)
	for {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			break
		}
		conn.Close()
		if time.Now().After(deadline) {
			t.Fatal("listener still accepting connections after shutdown began")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// The in-flight query, released now, still completes successfully.
	close(release)
	r := <-resCh
	if r.err != nil {
		t.Fatalf("in-flight query failed during drain: %v", r.err)
	}
	if r.status != http.StatusOK {
		t.Fatalf("in-flight query status = %d during drain, want 200", r.status)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("shutdown returned %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("server did not shut down within the drain window")
	}
}

// TestSIGHUPReloadsLogs sends the process a real SIGHUP and asserts the
// server re-runs its loaders and bumps the log generation.
func TestSIGHUPReloadsLogs(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var buf syncBuffer
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{"-log", "fig3", "-addr", "127.0.0.1:0"}, &buf)
	}()
	addr := waitServing(t, &buf, done)

	if err := syscall.Kill(os.Getpid(), syscall.SIGHUP); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for !strings.Contains(buf.String(), "reloaded 1 log(s), 0 quarantined") {
		if time.Now().After(deadline) {
			t.Fatalf("no reload log line after SIGHUP:\n%s", buf.String())
		}
		time.Sleep(10 * time.Millisecond)
	}

	resp, err := http.Get("http://" + addr + "/v1/logs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var logList struct {
		Logs []struct {
			Name       string `json:"name"`
			Generation uint64 `json:"generation"`
		} `json:"logs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&logList); err != nil {
		t.Fatal(err)
	}
	if len(logList.Logs) != 1 || logList.Logs[0].Generation != 1 {
		t.Fatalf("after SIGHUP logs = %+v, want fig3 at generation 1", logList.Logs)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("shutdown returned %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("server did not shut down")
	}
}
