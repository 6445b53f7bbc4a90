package eval

import (
	"context"
	"errors"
	"testing"

	"wlq/internal/core/pattern"
	"wlq/internal/resilience"
)

func TestEvalParallelCtxStats(t *testing.T) {
	traces := make([][]string, 32)
	for i := range traces {
		traces[i] = []string{"A", "B"}
	}
	l := buildLog(t, traces...)
	e := New(NewIndex(l), Options{})
	p := pattern.MustParse("A . B")
	for _, workers := range []int{1, 4} {
		var qs QueryStats
		set, err := e.EvalParallelCtx(context.Background(), p, workers, &qs)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if set.Len() != 32 {
			t.Errorf("workers=%d: %d incidents, want 32", workers, set.Len())
		}
		if qs.Workers != workers {
			t.Errorf("workers=%d: stats.Workers = %d", workers, qs.Workers)
		}
		if qs.Instances != 32 {
			t.Errorf("workers=%d: stats.Instances = %d, want 32", workers, qs.Instances)
		}
		if qs.Incidents != 32 {
			t.Errorf("workers=%d: stats.Incidents = %d, want 32", workers, qs.Incidents)
		}
	}
}

func TestEvalParallelCtxNilStats(t *testing.T) {
	l := buildLog(t, []string{"A", "B"}, []string{"A", "B"})
	e := New(NewIndex(l), Options{})
	set, err := e.EvalParallelCtx(context.Background(), pattern.MustParse("A -> B"), 2, nil)
	if err != nil || set.Len() != 2 {
		t.Fatalf("got (%v, %v), want 2 incidents", set, err)
	}
}

func TestEvalParallelCtxCancelled(t *testing.T) {
	traces := make([][]string, 16)
	for i := range traces {
		traces[i] = []string{"A", "B", "C"}
	}
	l := buildLog(t, traces...)
	e := New(NewIndex(l), Options{})
	p := pattern.MustParse("A -> C")
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already expired before evaluation starts
	for _, workers := range []int{1, 4} {
		set, err := e.EvalParallelCtx(ctx, p, workers, nil)
		if !errors.Is(err, context.Canceled) {
			t.Errorf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if set != nil {
			t.Errorf("workers=%d: got a partial result on cancellation", workers)
		}
	}
}

func TestEvalParallelCtxDeadline(t *testing.T) {
	l := buildLog(t, []string{"A", "B"})
	e := New(NewIndex(l), Options{})
	ctx, cancel := context.WithTimeout(context.Background(), -1)
	defer cancel()
	_, err := e.EvalParallelCtx(ctx, pattern.MustParse("A"), 2, nil)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}

// TestEvalParallelCtxReportsHighestRankedError: when one instance panics
// while its siblings trip the comparison budget, the caller sees the budget
// error — the panic only excludes its instance, and a trip is never turned
// into a shorter answer. The hook holds the siblings back until the
// panicking instance has been entered, so both failures happen on every run
// and only their order varies. Run with -count=200.
func TestEvalParallelCtxReportsHighestRankedError(t *testing.T) {
	traces := make([][]string, 8)
	for i := range traces {
		traces[i] = []string{"A", "A", "B", "B"}
	}
	e := New(NewIndex(buildLog(t, traces...)), Options{
		Strategy: StrategyNaive,
		Budget:   resilience.Budget{MaxComparisons: 1},
	})
	defer SetEvalHook(nil)
	for _, shape := range []Shape{ShapeIncidents, ShapeCount} {
		entered := make(chan struct{})
		SetEvalHook(func(wid uint64) {
			if wid == 1 { // first instance of the first worker's chunk
				close(entered)
				panic("injected fault")
			}
			<-entered
		})
		a, err := e.AnswerCtx(context.Background(), pattern.MustParse("A -> B"), e.src.WIDs(), 4, shape, nil)
		var be *resilience.BudgetError
		if !errors.As(err, &be) || a.Excluded != nil {
			t.Fatalf("%v: answer %+v, err = %v; want the *resilience.BudgetError and no answer", shape, a, err)
		}
	}
}
