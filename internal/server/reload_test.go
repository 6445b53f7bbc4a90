package server

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"wlq/internal/wlog"
)

// logLoader adapts a loader that returns a whole log to Config.Loader.
func logLoader(load func(spec string) (*wlog.Log, error)) func(string, func(wlog.Record)) error {
	return func(spec string, add func(wlog.Record)) error {
		l, err := load(spec)
		if err != nil {
			return err
		}
		for _, r := range l.Records() {
			add(r)
		}
		return nil
	}
}

// TestChaosReloadSingleFlight: concurrent reload triggers (a SIGHUP landing
// while POST /v1/reload is mid-pass, an operator mashing the endpoint) are
// coalesced into ONE loader pass whose result every caller shares. Run under
// `go test -race`: the joiners read the pass's result across goroutines.
func TestChaosReloadSingleFlight(t *testing.T) {
	var loads atomic.Int64
	gate := make(chan struct{}) // holds the first pass open inside the loader
	cfg := Config{Loader: logLoader(func(spec string) (*wlog.Log, error) {
		loads.Add(1)
		<-gate
		return chaosLog(t, 2, 2), nil
	})}
	s := New(cfg)
	if err := s.AddLog("chaos", "builtin:chaos", chaosLog(t, 2, 2)); err != nil {
		t.Fatal(err)
	}

	// First caller enters the loader and blocks on the gate.
	var (
		wg      sync.WaitGroup
		results [8]ReloadResult
		errs    [8]error
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		results[0], errs[0] = s.ReloadLogs()
	}()
	for loads.Load() == 0 {
		time.Sleep(time.Millisecond)
	}

	// Seven more callers arrive while the pass is in flight: all must join
	// it rather than start their own.
	var entered atomic.Int64
	for i := 1; i < len(results); i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			entered.Add(1)
			results[i], errs[i] = s.ReloadLogs()
		}(i)
	}
	for entered.Load() < int64(len(results)-1) {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(50 * time.Millisecond) // let the joiners reach the join point
	close(gate)
	wg.Wait()

	if n := loads.Load(); n != 1 {
		t.Fatalf("loader ran %d times for %d concurrent callers, want 1 (single-flight)", n, len(results))
	}
	coalesced := 0
	for i, res := range results {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		if len(res.Reloaded) != 1 || res.Reloaded[0] != "chaos" {
			t.Fatalf("caller %d result %+v, want the shared pass result", i, res)
		}
		if res.Coalesced {
			coalesced++
		}
	}
	if coalesced != len(results)-1 {
		t.Fatalf("%d callers coalesced, want %d (everyone but the pass owner)", coalesced, len(results)-1)
	}
	var m metricsDoc
	getJSON(t, s.Handler(), "/metrics", &m)
	if m.CoalescedReloads.Load() != uint64(len(results)-1) {
		t.Fatalf("coalesced_reloads = %d, want %d", m.CoalescedReloads.Load(), len(results)-1)
	}

	// The flight is over: a later caller starts a fresh pass, not a stale join.
	res, err := s.ReloadLogs()
	if err != nil {
		t.Fatal(err)
	}
	if res.Coalesced || loads.Load() != 2 {
		t.Fatalf("post-flight reload coalesced=%v loads=%d, want a fresh pass", res.Coalesced, loads.Load())
	}
}
