package cluster

import (
	"testing"
	"time"
)

// The backoff schedule is pure arithmetic over (attempt, jitter draw), so
// every property — exponential growth, the cap, jitter bounds — is asserted
// exactly, with no sleeping and no sampling.

func TestBackoffExponentialGrowth(t *testing.T) {
	want := []time.Duration{
		10 * time.Millisecond,  // attempt 1
		20 * time.Millisecond,  // attempt 2
		40 * time.Millisecond,  // attempt 3
		80 * time.Millisecond,  // attempt 4
		160 * time.Millisecond, // attempt 5
	}
	for i, w := range want {
		if got := delay(i+1, 0.5); got != w {
			t.Errorf("delay(%d) = %v, want %v", i+1, got, w)
		}
	}
}

func TestBackoffCap(t *testing.T) {
	// 10ms·2^7 = 1.28s is the first raw delay past the 1s cap.
	for attempt := 8; attempt <= 64; attempt++ {
		if got := delay(attempt, 0.5); got != backoffMax {
			t.Fatalf("delay(%d) = %v, want the %v cap", attempt, got, backoffMax)
		}
	}
	if got := delay(7, 0.5); got != 640*time.Millisecond {
		t.Fatalf("delay(7) = %v, want 640ms under the cap", got)
	}
	// Huge attempt numbers must not overflow past the cap.
	if got := delay(1<<20, 0.5); got != backoffMax {
		t.Fatalf("delay(1<<20) = %v, want the cap", got)
	}
}

func TestBackoffJitterBounds(t *testing.T) {
	// u=0 is the lower edge (1-jitter), u→1 the upper (1+jitter); u=0.5 is
	// the raw delay exactly.
	if got := delay(1, 0); got != 8*time.Millisecond {
		t.Errorf("delay(1, u=0) = %v, want 8ms", got)
	}
	if got := delay(1, 0.5); got != 10*time.Millisecond {
		t.Errorf("delay(1, u=0.5) = %v, want 10ms", got)
	}
	if got := delay(1, 0.999999); got >= 12*time.Millisecond || got < 10*time.Millisecond {
		t.Errorf("delay(1, u→1) = %v, want in [10ms, 12ms)", got)
	}
	// Bounds hold at every attempt, including at the cap.
	for attempt := 1; attempt <= 10; attempt++ {
		for _, u := range []float64{0, 0.25, 0.5, 0.75, 0.999} {
			raw := delay(attempt, 0.5)
			got := delay(attempt, u)
			lo := time.Duration(float64(raw) * 0.8)
			hi := time.Duration(float64(raw) * 1.2)
			if got < lo || got > hi {
				t.Fatalf("delay(%d, %v) = %v outside [%v, %v]", attempt, u, got, lo, hi)
			}
		}
	}
}
