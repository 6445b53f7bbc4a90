package cluster

import (
	"testing"
	"time"

	"wlq/internal/resilience"
)

// manualClock drives resilience.Now deterministically; the breaker's
// open → half-open transition is pure arithmetic over it.
type manualClock struct {
	t time.Time
}

func (c *manualClock) now() time.Time          { return c.t }
func (c *manualClock) advance(d time.Duration) { c.t = c.t.Add(d) }
func installClock(t *testing.T) *manualClock {
	t.Helper()
	c := &manualClock{t: time.Unix(1_700_000_000, 0)}
	resilience.SetClock(c.now)
	t.Cleanup(func() { resilience.SetClock(nil) })
	return c
}

func TestBreakerOpensAtThreshold(t *testing.T) {
	installClock(t)
	b := NewBreaker(3, time.Minute)
	for i := 0; i < 2; i++ {
		b.Failure()
		if got := b.State(); got != BreakerClosed {
			t.Fatalf("after %d failures state = %v, want closed", i+1, got)
		}
		if !b.Allow() {
			t.Fatalf("closed breaker refused a request after %d failures", i+1)
		}
	}
	b.Failure() // third consecutive failure trips it
	if got := b.State(); got != BreakerOpen {
		t.Fatalf("after threshold failures state = %v, want open", got)
	}
	if b.Allow() {
		t.Fatal("open breaker admitted a request before the cooldown")
	}
}

func TestBreakerSuccessResetsCount(t *testing.T) {
	installClock(t)
	b := NewBreaker(3, time.Minute)
	b.Failure()
	b.Failure()
	b.Success() // interleaved success: the count is consecutive, not total
	b.Failure()
	b.Failure()
	if got := b.State(); got != BreakerClosed {
		t.Fatalf("state = %v, want closed (failures were not consecutive)", got)
	}
	b.Failure()
	if got := b.State(); got != BreakerOpen {
		t.Fatalf("state = %v, want open after 3 consecutive failures", got)
	}
}

func TestBreakerHalfOpenTiming(t *testing.T) {
	clk := installClock(t)
	b := NewBreaker(1, time.Minute)
	b.Failure()
	if got := b.State(); got != BreakerOpen {
		t.Fatalf("state = %v, want open", got)
	}

	// One tick short of the cooldown: still refusing.
	clk.advance(time.Minute - time.Nanosecond)
	if b.Allow() {
		t.Fatal("breaker admitted a probe before the cooldown elapsed")
	}
	if got := b.State(); got != BreakerOpen {
		t.Fatalf("state = %v, want still open before cooldown", got)
	}

	// Exactly at the cooldown boundary: one probe is admitted, and only one.
	clk.advance(time.Nanosecond)
	if !b.Allow() {
		t.Fatal("breaker refused the half-open probe after the cooldown")
	}
	if got := b.State(); got != BreakerHalfOpen {
		t.Fatalf("state = %v, want half-open while the probe is out", got)
	}
	if b.Allow() {
		t.Fatal("half-open breaker admitted a second request alongside the probe")
	}

	// A successful probe closes the breaker.
	b.Success()
	if got := b.State(); got != BreakerClosed {
		t.Fatalf("state after successful probe = %v, want closed", got)
	}
	if !b.Allow() {
		t.Fatal("closed breaker refused a request")
	}
}

func TestBreakerFailedProbeReopens(t *testing.T) {
	clk := installClock(t)
	b := NewBreaker(1, time.Minute)
	b.Failure()
	clk.advance(time.Minute)
	if !b.Allow() {
		t.Fatal("breaker refused the half-open probe")
	}
	b.Failure() // probe failed: re-open for a fresh cooldown from now
	if got := b.State(); got != BreakerOpen {
		t.Fatalf("state after failed probe = %v, want open", got)
	}
	// The cooldown restarts at the re-open, not the original open.
	clk.advance(time.Minute - time.Second)
	if b.Allow() {
		t.Fatal("re-opened breaker admitted a probe before its fresh cooldown")
	}
	clk.advance(time.Second)
	if !b.Allow() {
		t.Fatal("re-opened breaker refused a probe after its fresh cooldown")
	}
}

// TestBreakerAbandonedProbeReopens: a half-open probe whose query dies
// before the worker answers says nothing about the worker. The probe is
// handed back — open again, the original cooldown already served — so the
// next Allow probes at once instead of refusing the worker forever.
func TestBreakerAbandonedProbeReopens(t *testing.T) {
	clk := installClock(t)
	b := NewBreaker(1, time.Minute)
	b.Abandon() // a closed breaker ignores it
	if got := b.State(); got != BreakerClosed {
		t.Fatalf("state after an abandoned request while closed = %v, want closed", got)
	}
	b.Failure()
	clk.advance(time.Minute)
	if !b.Allow() {
		t.Fatal("breaker refused the half-open probe")
	}
	b.Abandon()
	if got := b.State(); got != BreakerOpen {
		t.Fatalf("state after an abandoned probe = %v, want open", got)
	}
	// No fresh cooldown: the next request is the next probe.
	if !b.Allow() {
		t.Fatal("breaker refused the probe after an abandoned one")
	}
	b.Success()
	if got := b.State(); got != BreakerClosed {
		t.Fatalf("state after the next probe succeeded = %v, want closed", got)
	}
}

func TestBreakerStateStrings(t *testing.T) {
	for state, want := range map[BreakerState]string{
		BreakerClosed:   "closed",
		BreakerOpen:     "open",
		BreakerHalfOpen: "half-open",
		BreakerState(9): "unknown",
	} {
		if got := state.String(); got != want {
			t.Errorf("BreakerState(%d).String() = %q, want %q", state, got, want)
		}
	}
}
