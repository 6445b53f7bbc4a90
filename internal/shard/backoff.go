package shard

import "time"

// Backoff defaults, used by Backoff.withDefaults for zero fields.
const (
	DefaultBackoffBase   = 10 * time.Millisecond
	DefaultBackoffMax    = time.Second
	DefaultBackoffFactor = 2.0
	DefaultBackoffJitter = 0.2
)

// Backoff is a capped exponential backoff schedule with proportional
// jitter: the delay before retry attempt a (1-based) is
//
//	min(Base·Factor^(a−1), Max) · (1 + Jitter·(2u−1))
//
// with u drawn uniformly from [0,1). The cap applies to the raw exponential
// term, so the jittered delay stays within ±Jitter of Max once the schedule
// saturates. Jitter matters under correlated failure: when every part of
// every in-flight query retries a recovering worker, uniform spread is
// the difference between a ramp and a thundering herd.
type Backoff struct {
	// Base is the delay before the first retry (0 = DefaultBackoffBase).
	Base time.Duration
	// Max caps the raw exponential delay (0 = DefaultBackoffMax).
	Max time.Duration
	// Factor is the per-attempt growth multiplier (0 = DefaultBackoffFactor;
	// values below 1 are raised to 1, i.e. constant delay).
	Factor float64
	// Jitter is the proportional spread in [0,1): each delay is scaled by
	// a uniform factor in [1−Jitter, 1+Jitter). Negative disables jitter;
	// 0 means DefaultBackoffJitter.
	Jitter float64
}

// withDefaults resolves zero fields.
func (b Backoff) withDefaults() Backoff {
	if b.Base <= 0 {
		b.Base = DefaultBackoffBase
	}
	if b.Max <= 0 {
		b.Max = DefaultBackoffMax
	}
	if b.Factor == 0 {
		b.Factor = DefaultBackoffFactor
	}
	if b.Factor < 1 {
		b.Factor = 1
	}
	if b.Jitter == 0 {
		b.Jitter = DefaultBackoffJitter
	}
	if b.Jitter < 0 {
		b.Jitter = 0
	}
	return b
}

// Delay returns the backoff before retry attempt a (1-based), using u in
// [0,1) as the jitter draw — the caller supplies randomness, so tests pass
// fixed values and get exact delays.
func (b Backoff) Delay(attempt int, u float64) time.Duration {
	b = b.withDefaults()
	if attempt < 1 {
		attempt = 1
	}
	raw := float64(b.Base)
	for i := 1; i < attempt; i++ {
		raw *= b.Factor
		if raw >= float64(b.Max) {
			break
		}
	}
	if raw > float64(b.Max) {
		raw = float64(b.Max)
	}
	d := time.Duration(raw * (1 + b.Jitter*(2*u-1)))
	if d < 0 {
		d = 0
	}
	return d
}
