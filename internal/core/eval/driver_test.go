package eval_test

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"wlq/internal/colstore"
	"wlq/internal/core/eval"
	"wlq/internal/core/pattern"
	"wlq/internal/faultinject"
	"wlq/internal/gen"
	"wlq/internal/resilience"
	"wlq/internal/wlog"
)

// mixedSizes is the plan whose operands mix incident sizes, so that its
// incidents are not its qualifying operand pairs: it is never counted.
const mixedSizes = "(A | (A -> B)) -> (C | (B -> C))"

// entryPoint is one way of asking the evaluator; stats is nil for the entry
// points that take none.
type entryPoint struct {
	name string
	call func(ctx context.Context, e *eval.Evaluator, src eval.Source, p pattern.Node, stats *eval.QueryStats) error
}

var entryPoints = []entryPoint{
	{"EvalParallelCtx", func(ctx context.Context, e *eval.Evaluator, _ eval.Source, p pattern.Node, stats *eval.QueryStats) error {
		_, err := e.EvalParallelCtx(ctx, p, 1, stats)
		return err
	}},
	{"CountCtx", func(ctx context.Context, e *eval.Evaluator, _ eval.Source, p pattern.Node, _ *eval.QueryStats) error {
		_, err := e.CountCtx(ctx, p)
		return err
	}},
	{"ExistsCtx", func(ctx context.Context, e *eval.Evaluator, _ eval.Source, p pattern.Node, _ *eval.QueryStats) error {
		_, err := e.ExistsCtx(ctx, p)
		return err
	}},
	// AnswerCtx excludes a panicking instance instead of failing; read
	// strictly, the exclusion is the panic.
	{"AnswerCtx/instances", func(ctx context.Context, e *eval.Evaluator, src eval.Source, p pattern.Node, stats *eval.QueryStats) error {
		a, err := e.AnswerCtx(ctx, p, src.WIDs(), 1, eval.ShapeInstances, stats)
		return a.Strict(err)
	}},
	{"AnswerCtx/count", func(ctx context.Context, e *eval.Evaluator, src eval.Source, p pattern.Node, stats *eval.QueryStats) error {
		a, err := e.AnswerCtx(ctx, p, src.WIDs(), 1, eval.ShapeCount, stats)
		return a.Strict(err)
	}},
}

// traceLog builds a log of one instance per trace, records in trace order.
func traceLog(t *testing.T, traces ...[]string) *wlog.Log {
	t.Helper()
	var b wlog.Builder
	for _, acts := range traces {
		wid := b.Start()
		for _, a := range acts {
			if err := b.Emit(wid, a, nil, nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	return b.MustBuild()
}

func backends(l *wlog.Log) map[string]eval.Source {
	return map[string]eval.Source{"index": eval.NewIndex(l), "colstore": colstore.Build(l)}
}

// TestEveryEntryPointRunsUnderTheDriver: whichever entry point is called and
// whether the plan is counted (two atoms, a ≺-chain) or enumerated, every
// instance goes through the one scan — fault hook, panic isolation,
// statistics, budget, cancellation.
func TestEveryEntryPointRunsUnderTheDriver(t *testing.T) {
	// Nothing matches (every instance runs C B A), so no entry point stops
	// early and every instance is evaluated.
	const instances = 7
	traces := make([][]string, instances)
	for i := range traces {
		traces[i] = []string{"C", "B", "A"}
	}
	plain := backends(traceLog(t, traces...))
	// One instance of 64 records, all the same activity: every pair joins.
	worst := backends(gen.WorstCaseLog(64))
	tt := gen.WorstCaseActivity
	plans := []struct {
		name         string
		plain, worst pattern.Node
	}{
		{"two atoms", pattern.MustParse("A -> B"), gen.WorstCasePattern(1)},
		{"chain", pattern.MustParse("A -> B -> C"), gen.ChainPattern(pattern.OpSequential, tt, tt, tt)},
		{"uncountable", pattern.MustParse(mixedSizes), gen.WorstCasePattern(3)},
	}
	defer eval.SetEvalHook(nil)
	for _, ep := range entryPoints {
		for _, plan := range plans {
			for _, backend := range []string{"index", "colstore"} {
				t.Run(fmt.Sprintf("%s/%s/%s", ep.name, plan.name, backend), func(t *testing.T) {
					ctx := context.Background()
					src := plain[backend]
					e := eval.New(src, eval.Options{})

					calls := 0
					eval.SetEvalHook(func(uint64) { calls++ })
					var qs eval.QueryStats
					if err := ep.call(ctx, e, src, plan.plain, &qs); err != nil {
						t.Fatal(err)
					}
					if calls != instances {
						t.Errorf("the hook fired %d times over %d instances", calls, instances)
					}
					if want := (eval.QueryStats{Workers: 1, Instances: instances}); ep.name != "CountCtx" && ep.name != "ExistsCtx" && qs != want {
						t.Errorf("stats %+v, want %+v", qs, want)
					}

					eval.SetEvalHook(faultinject.PanicOnNth(3, "injected"))
					var pe *resilience.PanicError
					if err := ep.call(ctx, e, src, plan.plain, nil); !errors.As(err, &pe) {
						t.Errorf("a hook panic on the 3rd instance: err = %v, want a *resilience.PanicError", err)
					}
					eval.SetEvalHook(nil)

					cancelled, cancel := context.WithCancel(ctx)
					cancel()
					if err := ep.call(cancelled, e, src, plan.plain, nil); !errors.Is(err, context.Canceled) {
						t.Errorf("cancelled ctx: err = %v", err)
					}

					src = worst[backend]
					e = eval.New(src, eval.Options{Budget: resilience.Budget{MaxComparisons: 8}})
					var be *resilience.BudgetError
					if err := ep.call(ctx, e, src, plan.worst, nil); !errors.As(err, &be) || be.Dimension != resilience.DimComparisons {
						t.Errorf("8 comparisons for %s over 64 records: err = %v, want a comparisons *resilience.BudgetError", plan.worst, err)
					}
				})
			}
		}
	}
}
