package eval

import (
	"context"
	"errors"
	"testing"
	"time"

	"wlq/internal/core/pattern"
	"wlq/internal/resilience"
	"wlq/internal/wlog"
)

// heavyLog builds a log whose A -> B evaluation performs many comparisons:
// each instance interleaves n As and n Bs, so the sequential join of one
// instance touches ~n² pairs under the naive strategy.
func heavyLog(t *testing.T, instances, n int) *wlog.Log {
	t.Helper()
	traces := make([][]string, instances)
	for i := range traces {
		tr := make([]string, 0, 2*n)
		for j := 0; j < n; j++ {
			tr = append(tr, "A", "B")
		}
		traces[i] = tr
	}
	return buildLog(t, traces...)
}

func budgetEval(t *testing.T, l *wlog.Log, query string, workers int, b resilience.Budget) (*QueryStats, *Meter, error) {
	t.Helper()
	p := pattern.MustParse(query)
	meter := NewMeter(p)
	e := New(NewIndex(l), Options{Strategy: StrategyNaive, Meter: meter, Budget: b})
	var qs QueryStats
	_, err := e.EvalParallelCtx(context.Background(), p, workers, &qs)
	return &qs, meter, err
}

func TestBudgetMaxComparisonsAborts(t *testing.T) {
	l := heavyLog(t, 4, 200) // ~4·200² = 160k comparisons for A -> B
	const max = 10_000
	for _, workers := range []int{1, 4} {
		_, meter, err := budgetEval(t, l, "A -> B", workers,
			resilience.Budget{MaxComparisons: max})
		if !errors.Is(err, resilience.ErrBudgetExceeded) {
			t.Fatalf("workers=%d: err = %v, want budget exceeded", workers, err)
		}
		var be *resilience.BudgetError
		if !errors.As(err, &be) || be.Dimension != resilience.DimComparisons {
			t.Fatalf("workers=%d: wrong dimension: %v", workers, err)
		}
		// The abort is prompt: measured work stays within the limit plus
		// one check interval per worker (the overshoot bound budget.go
		// documents).
		slack := uint64(workers) * resilience.CheckInterval
		if got := meter.TotalComparisons(); got > max+slack {
			t.Errorf("workers=%d: meter comparisons %d > limit %d + slack %d",
				workers, got, max, slack)
		}
	}
}

func TestBudgetMaxOutputsAborts(t *testing.T) {
	l := heavyLog(t, 2, 100) // ~2·(100·101/2) ≈ 10k incidents for A -> B
	_, _, err := budgetEval(t, l, "A -> B", 2, resilience.Budget{MaxOutputs: 500})
	var be *resilience.BudgetError
	if !errors.As(err, &be) || be.Dimension != resilience.DimOutputs {
		t.Fatalf("err = %v, want outputs budget error", err)
	}
}

func TestBudgetMaxResultBytesAborts(t *testing.T) {
	l := heavyLog(t, 8, 50)
	_, _, err := budgetEval(t, l, "A -> B", 2, resilience.Budget{MaxResultBytes: 4 << 10})
	var be *resilience.BudgetError
	if !errors.As(err, &be) || be.Dimension != resilience.DimResultBytes {
		t.Fatalf("err = %v, want result-bytes budget error", err)
	}
}

func TestBudgetMaxWallTimeAbortsDeterministically(t *testing.T) {
	// A one-nanosecond budget is a deadline the scan's context has passed
	// before the first instance, so the trip needs no waiting and no clock.
	l := heavyLog(t, 2, 100)
	_, _, err := budgetEval(t, l, "A -> B", 1, resilience.Budget{MaxWallTime: time.Nanosecond})
	var be *resilience.BudgetError
	if !errors.As(err, &be) || be.Dimension != resilience.DimWallTime {
		t.Fatalf("err = %v, want wall-time budget error", err)
	}
	if be.Limit != uint64(time.Nanosecond) || be.Measured < be.Limit {
		t.Fatalf("limit %d, measured %d: want the 1ns limit and at least that much measured", be.Limit, be.Measured)
	}
}

func TestBudgetWithinLimitsSucceeds(t *testing.T) {
	l := heavyLog(t, 4, 20)
	p := pattern.MustParse("A -> B")
	want := New(NewIndex(l), Options{}).Eval(p)
	e := New(NewIndex(l), Options{Budget: resilience.Budget{
		MaxComparisons: 1 << 40,
		MaxOutputs:     1 << 40,
		MaxWallTime:    time.Hour,
		MaxResultBytes: 1 << 40,
	}})
	got, err := e.EvalParallelCtx(context.Background(), p, 4, nil)
	if err != nil {
		t.Fatalf("roomy budget aborted: %v", err)
	}
	if !got.Equal(want) {
		t.Fatal("budgeted evaluation changed the result")
	}
}

func TestZeroBudgetIsFree(t *testing.T) {
	if bs := newBudgetState(resilience.Budget{}); bs != nil {
		t.Fatal("zero budget must produce a nil state")
	}
	// All nil-state methods are no-ops.
	var bs *budgetState
	bs.addComparisons(1 << 50)
	bs.addOutputs(1 << 30)
	if err := bs.addResult(nil); err != nil {
		t.Fatalf("nil state addResult: %v", err)
	}
}

func TestWorkerPanicIsIsolated(t *testing.T) {
	l := heavyLog(t, 8, 4)
	SetEvalHook(func(wid uint64) {
		if wid == 5 {
			panic("injected worker fault")
		}
	})
	defer SetEvalHook(nil)

	e := New(NewIndex(l), Options{})
	for _, workers := range []int{1, 4} {
		_, err := e.EvalParallelCtx(context.Background(), pattern.MustParse("A -> B"), workers, nil)
		var pe *resilience.PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("workers=%d: err = %v, want *PanicError", workers, err)
		}
		if pe.IncidentID == "" || len(pe.Stack) == 0 {
			t.Fatalf("workers=%d: panic error missing incident id or stack", workers)
		}
	}

	// The evaluator (and the process) survive: a clean evaluation on the
	// same Evaluator still succeeds once the fault stops firing.
	SetEvalHook(nil)
	set, err := e.EvalParallelCtx(context.Background(), pattern.MustParse("A -> B"), 4, nil)
	if err != nil {
		t.Fatalf("post-fault evaluation failed: %v", err)
	}
	if set.Len() == 0 {
		t.Fatal("post-fault evaluation returned no incidents")
	}
}

func TestBudgetMergeStrategyAlsoEnforced(t *testing.T) {
	// The merge joins count probes rather than pairs, so force volume with
	// outputs: mergeSequential's output work is unavoidable.
	l := heavyLog(t, 2, 150)
	p := pattern.MustParse("A -> B")
	e := New(NewIndex(l), Options{Strategy: StrategyMerge,
		Budget: resilience.Budget{MaxOutputs: 1000}})
	_, err := e.EvalParallelCtx(context.Background(), p, 2, nil)
	var be *resilience.BudgetError
	if !errors.As(err, &be) || be.Dimension != resilience.DimOutputs {
		t.Fatalf("merge strategy: err = %v, want outputs budget error", err)
	}
}
