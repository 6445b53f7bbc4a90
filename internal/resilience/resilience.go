// Package resilience provides the safety layer that makes the query engine
// fit to face untrusted queries: per-query resource budgets, a semaphore
// admission controller for load shedding, and panic-to-error conversion with
// incident ids.
//
// The need is quantitative, not hypothetical: Lemma 1 bounds one operator
// application by O(n1·n2·k) and Theorem 1 shows incident counts up to
// O(m^k), so a single adversarial pattern (deep ⊕ nests over a dense log)
// can pin a worker for minutes. The paper's cost model predicts which
// queries are dangerous (rewrite.Estimate) and eval.Meter measures the work
// actually done; this package turns those numbers into enforcement:
//
//   - Budget caps what one evaluation may consume. The evaluator checks it
//     periodically (every CheckInterval comparisons, and between workflow
//     instances) and aborts with an error wrapping ErrBudgetExceeded.
//   - Admission bounds in-flight queries; requests beyond capacity are shed
//     immediately (HTTP 429 + Retry-After at the service layer) instead of
//     queueing behind a saturated worker pool.
//   - PanicError is what a panicking evaluation is converted into at the
//     evaluator's isolation boundary: a short incident id and the stack, so
//     one poisoned query kills one request, not the process.
//
// The package is a leaf: it depends only on the standard library, so every
// layer (eval, server, the CLIs) can share the same Budget type without
// import cycles.
package resilience

import (
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"runtime/debug"
	"sync/atomic"
	"time"
)

// CheckInterval is the number of record-level comparisons between checks
// inside the evaluator's join loops: a non-blocking receive on the
// evaluation context's Done channel and, under a work budget, one atomic
// add and a couple of loads. The interval trades abort latency against
// overhead: a query can overrun MaxComparisons by at most one interval per
// concurrent worker before aborting.
const CheckInterval = 4096

// Budget caps the resources one query evaluation may consume. The zero
// value (and any zero field) means unlimited. The same Budget protects the
// HTTP service (server.Config.Budget) and batch use (wlq -max-comparisons,
// -timeout), so both front ends degrade identically.
type Budget struct {
	// MaxComparisons caps the measured record-level comparison work of the
	// operator joins, in the units Lemma 1 counts (the same units
	// eval.Meter reports). Checked every CheckInterval comparisons.
	MaxComparisons uint64
	// MaxOutputs caps the total incidents produced across all operator
	// applications (intermediate results included), bounding the Theorem 1
	// blowup before it exhausts memory. Checked per operator application.
	MaxOutputs uint64
	// MaxWallTime caps evaluation wall clock: a deadline on the
	// evaluation's context, which the evaluator polls between workflow
	// instances and at the comparison stride. When the caller's own
	// deadline comes first, that one stops the evaluation instead.
	MaxWallTime time.Duration
	// MaxResultBytes caps the approximate in-memory size of the final
	// result set, checked as each workflow instance's incidents are
	// produced.
	MaxResultBytes uint64
}

// IsZero reports whether every limit is unset (nothing to enforce).
func (b Budget) IsZero() bool {
	return b.MaxComparisons == 0 && b.MaxOutputs == 0 &&
		b.MaxWallTime == 0 && b.MaxResultBytes == 0
}

// Slice divides the budget's work dimensions evenly across n concurrent
// cluster workers, rounding up so n slices always cover the whole budget. Wall time is NOT divided: the
// domains run concurrently, so each inherits the full wall-clock allowance.
// n <= 1 returns the budget unchanged.
func (b Budget) Slice(n int) Budget {
	if n <= 1 {
		return b
	}
	div := func(v uint64) uint64 {
		if v == 0 {
			return 0
		}
		return (v + uint64(n) - 1) / uint64(n)
	}
	return Budget{
		MaxComparisons: div(b.MaxComparisons),
		MaxOutputs:     div(b.MaxOutputs),
		MaxWallTime:    b.MaxWallTime,
		MaxResultBytes: div(b.MaxResultBytes),
	}
}

// ErrBudgetExceeded is the sentinel all budget aborts wrap; callers match
// with errors.Is and inspect the dimension via errors.As on *BudgetError.
var ErrBudgetExceeded = errors.New("query budget exceeded")

// Budget dimensions, as reported by BudgetError.Dimension.
const (
	DimComparisons = "comparisons"
	DimOutputs     = "outputs"
	DimWallTime    = "wall_time"
	DimResultBytes = "result_bytes"
)

// BudgetError reports which budget dimension a query exhausted. It wraps
// ErrBudgetExceeded.
type BudgetError struct {
	// Dimension is one of the Dim* constants.
	Dimension string
	// Limit is the configured cap; Measured the value that tripped it (for
	// DimWallTime both are in nanoseconds).
	Limit, Measured uint64
}

// Error implements error.
func (e *BudgetError) Error() string {
	if e.Dimension == DimWallTime {
		return fmt.Sprintf("query budget exceeded: %s %v > limit %v",
			e.Dimension, time.Duration(e.Measured), time.Duration(e.Limit))
	}
	return fmt.Sprintf("query budget exceeded: %s %d > limit %d",
		e.Dimension, e.Measured, e.Limit)
}

// Unwrap makes errors.Is(err, ErrBudgetExceeded) hold.
func (e *BudgetError) Unwrap() error { return ErrBudgetExceeded }

// nowFn is the clock the cluster's circuit breakers read their cooldowns
// from, replaceable so tests can step past a cooldown without sleeping.
// Stored atomically so tests swapping it race-cleanly with running queries.
var nowFn atomic.Pointer[func() time.Time]

// Now returns the current time from the configured clock.
func Now() time.Time {
	if f := nowFn.Load(); f != nil {
		return (*f)()
	}
	return time.Now()
}

// SetClock replaces the clock used by Now; nil restores time.Now. Intended
// for tests only (deterministic breaker cooldowns).
func SetClock(f func() time.Time) {
	if f == nil {
		nowFn.Store(nil)
		return
	}
	nowFn.Store(&f)
}

// Admission is a semaphore-based admission controller: at most capacity
// queries evaluate concurrently, and arrivals beyond that are shed
// immediately rather than queued (a saturated pool means every queued query
// would wait behind Lemma 1 worst cases; fail fast and let the client retry
// with backoff). A nil *Admission admits everything.
type Admission struct {
	capacity int
	sem      chan struct{}
	shed     atomic.Uint64
}

// NewAdmission creates a controller admitting up to capacity concurrent
// queries; capacity <= 0 returns nil (unlimited).
func NewAdmission(capacity int) *Admission {
	if capacity <= 0 {
		return nil
	}
	return &Admission{capacity: capacity, sem: make(chan struct{}, capacity)}
}

// TryAcquire claims a slot without blocking; false means saturated (the
// caller should shed the request). Every failed acquire is counted.
func (a *Admission) TryAcquire() bool {
	if a == nil {
		return true
	}
	select {
	case a.sem <- struct{}{}:
		return true
	default:
		a.shed.Add(1)
		return false
	}
}

// Release frees a slot claimed by a successful TryAcquire.
func (a *Admission) Release() {
	if a == nil {
		return
	}
	select {
	case <-a.sem:
	default:
		// Release without acquire is a caller bug; tolerate it rather than
		// deadlock a serving path.
	}
}

// InFlight returns the number of slots currently held.
func (a *Admission) InFlight() int {
	if a == nil {
		return 0
	}
	return len(a.sem)
}

// Capacity returns the configured concurrency bound (0 = unlimited).
func (a *Admission) Capacity() int {
	if a == nil {
		return 0
	}
	return a.capacity
}

// Shed returns how many arrivals were rejected for saturation.
func (a *Admission) Shed() uint64 {
	if a == nil {
		return 0
	}
	return a.shed.Load()
}

// RetryAfter suggests a client backoff when saturated. One second: the
// service bounds evaluation with budgets and timeouts measured in seconds,
// so a saturated pool usually turns over within one.
func (a *Admission) RetryAfter() time.Duration { return time.Second }

// PanicError is a panic converted to an error at an isolation boundary (an
// evaluation worker or an HTTP handler). The incident id correlates the
// client-visible error with the server-side stack log.
type PanicError struct {
	// IncidentID is a short random id echoed to the client.
	IncidentID string
	// Value is the recovered panic value.
	Value any
	// Stack is the goroutine stack captured at recovery.
	Stack []byte
}

// Error implements error; the stack is deliberately omitted (log it
// server-side via the Stack field).
func (e *PanicError) Error() string {
	return fmt.Sprintf("internal panic (incident %s): %v", e.IncidentID, e.Value)
}

// NewPanicError wraps a recovered panic value with a fresh incident id and
// the current stack.
func NewPanicError(value any) *PanicError {
	return &PanicError{IncidentID: NewIncidentID(), Value: value, Stack: debug.Stack()}
}

// NewIncidentID returns a short random hex id for correlating recovered
// panics across client responses, logs and metrics.
func NewIncidentID() string {
	var b [6]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing is effectively unreachable; fall back to a
		// constant rather than plumb an error through every recover path.
		return "000000000000"
	}
	return hex.EncodeToString(b[:])
}
