package resilience

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestBudgetIsZero(t *testing.T) {
	if !(Budget{}).IsZero() {
		t.Fatal("zero Budget should be zero")
	}
	for i, b := range []Budget{
		{MaxComparisons: 1},
		{MaxOutputs: 1},
		{MaxWallTime: time.Nanosecond},
		{MaxResultBytes: 1},
	} {
		if b.IsZero() {
			t.Fatalf("budget %d with a limit should not be zero", i)
		}
	}
}

func TestBudgetErrorWrapsSentinel(t *testing.T) {
	var err error = &BudgetError{Dimension: DimComparisons, Limit: 10, Measured: 14}
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatal("BudgetError must wrap ErrBudgetExceeded")
	}
	var be *BudgetError
	if !errors.As(err, &be) || be.Dimension != DimComparisons {
		t.Fatalf("errors.As failed: %v", err)
	}
	if got := err.Error(); got != "query budget exceeded: comparisons 14 > limit 10" {
		t.Fatalf("unexpected message %q", got)
	}
	wt := &BudgetError{Dimension: DimWallTime,
		Limit: uint64(time.Second), Measured: uint64(2 * time.Second)}
	if got := wt.Error(); got != "query budget exceeded: wall_time 2s > limit 1s" {
		t.Fatalf("unexpected wall-time message %q", got)
	}
}

func TestAdmissionBoundsAndSheds(t *testing.T) {
	a := NewAdmission(2)
	if !a.TryAcquire() || !a.TryAcquire() {
		t.Fatal("first two acquires must succeed")
	}
	if a.TryAcquire() {
		t.Fatal("third acquire must shed")
	}
	if got := a.Shed(); got != 1 {
		t.Fatalf("shed count = %d, want 1", got)
	}
	if got := a.InFlight(); got != 2 {
		t.Fatalf("in-flight = %d, want 2", got)
	}
	a.Release()
	if !a.TryAcquire() {
		t.Fatal("acquire after release must succeed")
	}
	if a.Capacity() != 2 {
		t.Fatalf("capacity = %d, want 2", a.Capacity())
	}
	if a.RetryAfter() <= 0 {
		t.Fatal("RetryAfter must be positive")
	}
}

func TestAdmissionNilAdmitsEverything(t *testing.T) {
	var a *Admission
	for i := 0; i < 100; i++ {
		if !a.TryAcquire() {
			t.Fatal("nil admission must admit")
		}
	}
	a.Release()
	if a.Shed() != 0 || a.InFlight() != 0 || a.Capacity() != 0 {
		t.Fatal("nil admission counters must be zero")
	}
}

func TestAdmissionConcurrent(t *testing.T) {
	a := NewAdmission(4)
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				if a.TryAcquire() {
					if n := a.InFlight(); n < 1 || n > 4 {
						t.Errorf("in-flight %d outside [1,4]", n)
					}
					a.Release()
				}
			}
		}()
	}
	wg.Wait()
	if a.InFlight() != 0 {
		t.Fatalf("in-flight after drain = %d, want 0", a.InFlight())
	}
}

func TestNewPanicError(t *testing.T) {
	var err error = NewPanicError("kaboom")
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("want *PanicError, got %T: %v", err, err)
	}
	if pe.Value != "kaboom" {
		t.Fatalf("panic value = %v", pe.Value)
	}
	if len(pe.IncidentID) != 12 {
		t.Fatalf("incident id %q not 12 hex chars", pe.IncidentID)
	}
	if len(pe.Stack) == 0 {
		t.Fatal("stack not captured")
	}
}

func TestSetClock(t *testing.T) {
	fixed := time.Date(2026, 8, 6, 12, 0, 0, 0, time.UTC)
	SetClock(func() time.Time { return fixed })
	defer SetClock(nil)
	if !Now().Equal(fixed) {
		t.Fatalf("Now() = %v, want %v", Now(), fixed)
	}
	SetClock(nil)
	if d := time.Since(Now()); d < -time.Minute || d > time.Minute {
		t.Fatalf("restored clock is off by %v", d)
	}
}

func TestIncidentIDsUnique(t *testing.T) {
	seen := make(map[string]bool)
	for i := 0; i < 1000; i++ {
		id := NewIncidentID()
		if seen[id] {
			t.Fatalf("duplicate incident id %q", id)
		}
		seen[id] = true
	}
}

func ExampleBudget() {
	b := Budget{MaxComparisons: 1_000_000, MaxWallTime: 2 * time.Second}
	fmt.Println(b.IsZero())
	// Output: false
}

func TestBudgetSlice(t *testing.T) {
	b := Budget{
		MaxComparisons: 10, MaxOutputs: 7, MaxResultBytes: 3,
		MaxWallTime: 2 * time.Second,
	}
	s := b.Slice(3)
	// Work dimensions divide ceil-wise: the shards together may do slightly
	// MORE than the original budget, never less — a query that fit on one
	// node must not be rejected just because it was distributed.
	if s.MaxComparisons != 4 || s.MaxOutputs != 3 || s.MaxResultBytes != 1 {
		t.Fatalf("Slice(3) work dims = %d/%d/%d, want 4/3/1",
			s.MaxComparisons, s.MaxOutputs, s.MaxResultBytes)
	}
	// Wall time is shared, not divided: shards run concurrently.
	if s.MaxWallTime != b.MaxWallTime {
		t.Fatalf("Slice(3) wall time = %v, want %v", s.MaxWallTime, b.MaxWallTime)
	}
	if got := b.Slice(1); got != b {
		t.Fatalf("Slice(1) = %+v, want unchanged", got)
	}
	if got := b.Slice(0); got != b {
		t.Fatalf("Slice(0) = %+v, want unchanged", got)
	}
	// Unset (zero) dimensions stay unlimited.
	partial := Budget{MaxOutputs: 5}
	if s := partial.Slice(2); s.MaxComparisons != 0 || s.MaxOutputs != 3 {
		t.Fatalf("Slice(2) of partial budget = %+v", s)
	}
	var zero Budget
	if s := zero.Slice(4); !s.IsZero() {
		t.Fatalf("Slice of zero budget = %+v, want zero", s)
	}
}
