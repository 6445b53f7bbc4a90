package cluster

import (
	"sync"
	"time"

	"wlq/internal/resilience"
)

// Breaker defaults, used by NewBreaker for zero arguments.
const (
	DefaultBreakerThreshold = 5
	DefaultBreakerCooldown  = 30 * time.Second
)

// BreakerState is a circuit breaker's position.
type BreakerState int

// Breaker states, in the classic closed → open → half-open cycle.
const (
	// BreakerClosed: requests flow; consecutive failures are counted.
	BreakerClosed BreakerState = iota
	// BreakerOpen: requests are refused until the cooldown elapses.
	BreakerOpen
	// BreakerHalfOpen: one probe is in flight; its outcome decides whether
	// the breaker closes again or re-opens for another cooldown.
	BreakerHalfOpen
)

// String names the state as exported in metrics and completeness causes.
func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	default:
		return "unknown"
	}
}

// Breaker is a per-worker circuit breaker: after threshold consecutive
// failures it opens and refuses work, so a persistently failing worker is
// skipped (and reported in Completeness) instead of retried forever; after
// the cooldown one half-open probe is admitted, and its outcome either
// closes the breaker or re-opens it for another cooldown.
//
// The breaker reads time through resilience.Now, so open → half-open
// transitions are deterministic under the test clock seam. All methods are
// safe for concurrent use: breakers outlive single queries (the coordinator
// keeps one per worker across calls), so concurrent queries share them.
type Breaker struct {
	mu        sync.Mutex
	threshold int
	cooldown  time.Duration

	state    BreakerState
	failures int       // consecutive failures while closed
	openedAt time.Time // when the breaker last opened
}

// NewBreaker creates a closed breaker opening after threshold consecutive
// failures (<= 0 = DefaultBreakerThreshold) and probing again after
// cooldown (<= 0 = DefaultBreakerCooldown).
func NewBreaker(threshold int, cooldown time.Duration) *Breaker {
	if threshold <= 0 {
		threshold = DefaultBreakerThreshold
	}
	if cooldown <= 0 {
		cooldown = DefaultBreakerCooldown
	}
	return &Breaker{threshold: threshold, cooldown: cooldown}
}

// Allow reports whether a request may proceed. While open it returns false
// until the cooldown elapses; the first Allow after that transitions to
// half-open and admits exactly one probe (further Allows are refused until
// the probe reports Success, Failure or Abandon).
func (b *Breaker) Allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		return true
	case BreakerOpen:
		if resilience.Now().Sub(b.openedAt) >= b.cooldown {
			b.state = BreakerHalfOpen
			return true
		}
		return false
	default: // BreakerHalfOpen: the probe is already out
		return false
	}
}

// Success reports a completed request, closing the breaker and resetting
// the consecutive-failure count.
func (b *Breaker) Success() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.state = BreakerClosed
	b.failures = 0
}

// Failure reports a failed request. The threshold'th consecutive failure
// opens the breaker; a failed half-open probe re-opens it immediately.
func (b *Breaker) Failure() {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerHalfOpen:
		b.open()
	case BreakerClosed:
		b.failures++
		if b.failures >= b.threshold {
			b.open()
		}
	}
}

// Abandon reports a request that ended without an outcome: the query's
// context died, which is no verdict on the worker. A half-open probe is
// handed back — the breaker re-opens with its original openedAt, so the
// next Allow probes again — instead of refusing every request while waiting
// for an outcome that will never come. A closed breaker is unaffected.
func (b *Breaker) Abandon() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == BreakerHalfOpen {
		b.state = BreakerOpen
	}
}

// open transitions to BreakerOpen; callers hold b.mu.
func (b *Breaker) open() {
	b.state = BreakerOpen
	b.failures = 0
	b.openedAt = resilience.Now()
}

// State returns the breaker's current position without advancing it (an
// elapsed cooldown still reads as open until an Allow probes).
func (b *Breaker) State() BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}
