package eval

import (
	"errors"
	"sync/atomic"

	"wlq/internal/core/incident"
	"wlq/internal/resilience"
)

// Budget enforcement. Options.Budget caps the resources one evaluation may
// consume; the caps are checked inside the hot loops, but periodically, not
// per comparison:
//
//   - comparisons: the opCount every join tallies into flushes to a shared
//     atomic total every resilience.CheckInterval comparisons, where the
//     MaxComparisons limit is checked. A query therefore overruns
//     MaxComparisons by at most one interval per concurrent worker before
//     aborting — the same counters eval.Meter reports, so budget accounting
//     and the cost table agree.
//   - outputs: checked after every operator application (MaxOutputs bounds
//     the Theorem 1 incident blowup, intermediate results included).
//   - result bytes: checked between workflow instances as each instance's
//     incidents are produced.
//   - wall time: a deadline on the scan's context (cause errWallTime), the
//     one clock the evaluator reads. Its end sets the scan's stop flag,
//     read between instances, and it is polled at the same CheckInterval
//     stride inside every join; scan reports a stop with that cause as the
//     wall-time *BudgetError.
//
// Deep inside a join there is no error return path (Algorithm 1's loops
// produce slices, not errors), so a tripped limit or a done context aborts
// by panicking with a budgetAbort, which the run's recover (scan) converts
// back into its error. The panic never escapes the evaluator.
//
// Every entry point runs the same scan (parallel.go), so every one enforces
// Options.Budget; those without an error result panic with the *BudgetError,
// which is why a caller that sets a budget uses the error-returning forms
// (AnswerCtx, EvalParallelCtx, ExistsCtx, CountCtx). A counted instance
// (count.go) produces no incident, so of the four dimensions the comparisons
// its summary joins tally and the wall time bound it.

// budgetAbort is the internal panic payload carrying the error a join stops
// with: a *BudgetError, or the cause of the scan's done context.
type budgetAbort struct {
	err error
}

// errWallTime is the cause of a scan's context that its wall-time budget
// ended; scan turns it into the wall-time *BudgetError.
var errWallTime = errors.New("eval: wall-time budget exceeded")

// budgetState is the shared, per-evaluation enforcement state of the work
// limits. All workers of a parallel evaluation share one; counters are
// atomic. A nil *budgetState disables enforcement everywhere it is passed.
type budgetState struct {
	b resilience.Budget

	comparisons atomic.Uint64
	outputs     atomic.Uint64
	resultBytes atomic.Uint64
}

// newBudgetState starts enforcement for one evaluation; a budget without a
// work limit returns nil (no overhead on any path): its wall time, if any,
// is the scan context's deadline.
func newBudgetState(b resilience.Budget) *budgetState {
	if b.MaxWallTime = 0; b.IsZero() {
		return nil
	}
	return &budgetState{b: b}
}

// addComparisons folds a flushed comparison delta into the shared total and
// checks the comparison limit, panicking with budgetAbort on a violation
// (this is the mid-join check; there is no error return path).
func (bs *budgetState) addComparisons(delta uint64) {
	if bs == nil {
		return
	}
	total := bs.comparisons.Add(delta)
	if max := bs.b.MaxComparisons; max > 0 && total > max {
		panic(budgetAbort{&resilience.BudgetError{
			Dimension: resilience.DimComparisons, Limit: max, Measured: total,
		}})
	}
}

// addOutputs folds one operator application's incident count into the
// shared total, panicking on a MaxOutputs violation.
func (bs *budgetState) addOutputs(n int) {
	if bs == nil {
		return
	}
	total := bs.outputs.Add(uint64(n))
	if max := bs.b.MaxOutputs; max > 0 && total > max {
		panic(budgetAbort{&resilience.BudgetError{
			Dimension: resilience.DimOutputs, Limit: max, Measured: total,
		}})
	}
}

// incidentBytes approximates the in-memory size of one incident: the
// two-word header plus the seqs slice (three-word header + 8 bytes per
// element).
func incidentBytes(o incident.Incident) uint64 {
	return 40 + 8*uint64(o.Len())
}

// addResult accounts one finished instance's incidents against the
// result-size budget. Called at the instance boundary, where an error return
// exists — no panic needed.
func (bs *budgetState) addResult(incs []incident.Incident) error {
	if bs == nil {
		return nil
	}
	var bytes uint64
	for _, o := range incs {
		bytes += incidentBytes(o)
	}
	total := bs.resultBytes.Add(bytes)
	if max := bs.b.MaxResultBytes; max > 0 && total > max {
		return &resilience.BudgetError{
			Dimension: resilience.DimResultBytes, Limit: max, Measured: total,
		}
	}
	return nil
}

// evalHook, when set, is called once per instance evaluation, before any
// join work for that instance, inside the run's recover. It is a
// deterministic fault-injection seam: internal/faultinject builds hooks
// that panic on the Nth call or stall, and the chaos tests assert the
// service degrades instead of dying. A scan loads it once per run; an
// answer from the statistics (fromStatistics) evaluates no instance and
// calls it for none. Production code never sets it.
var evalHook atomic.Pointer[func(wid uint64)]

// SetEvalHook installs (or, with nil, removes) the per-instance evaluation
// hook. Intended for tests only.
func SetEvalHook(h func(wid uint64)) {
	if h == nil {
		evalHook.Store(nil)
		return
	}
	evalHook.Store(&h)
}
