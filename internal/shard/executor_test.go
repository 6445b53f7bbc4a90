package shard

import (
	"context"
	"errors"
	"testing"

	"wlq/internal/core/eval"
	"wlq/internal/core/pattern"
	"wlq/internal/wlog"
)

// The Executor is a thin wrapper over eval's one scan; these pin that it
// stays one: the same answer as the evaluator, and a cancelled context is
// the caller's error, not an answer.

// pairsLog builds instances instances of n interleaved A/B pairs each.
func pairsLog(t *testing.T, instances, n int) *wlog.Log {
	t.Helper()
	var b wlog.Builder
	for i := 0; i < instances; i++ {
		wid := b.Start()
		for j := 0; j < n; j++ {
			if err := b.Emit(wid, "A", nil, nil); err != nil {
				t.Fatal(err)
			}
			if err := b.Emit(wid, "B", nil, nil); err != nil {
				t.Fatal(err)
			}
		}
		if err := b.End(wid); err != nil {
			t.Fatal(err)
		}
	}
	return b.MustBuild()
}

// TestShardChaosEqualUnsharded: for all four operators, the executor's
// answer over four goroutines is byte-identical to the serial evaluator's.
func TestShardChaosEqualUnsharded(t *testing.T) {
	ix := eval.NewIndex(pairsLog(t, 16, 3))
	x := NewExecutor(ix, Config{Shards: 4})
	for _, q := range []string{"A . B", "A -> B", "A | B", "A & B"} {
		p := pattern.MustParse(q)
		want := eval.New(ix, eval.Options{}).Eval(p)
		var stats eval.QueryStats
		got, err := x.Execute(context.Background(), p, eval.Options{}, &stats)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if got.String() != want.String() || stats.Workers != 4 || stats.Instances != 16 {
			t.Fatalf("%s: %s with stats %+v, want %s over 16 instances on 4 goroutines", q, got, stats, want)
		}
	}
}

func TestShardChaosContextCancel(t *testing.T) {
	x := NewExecutor(eval.NewIndex(pairsLog(t, 16, 3)), Config{Shards: 4})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if set, err := x.Execute(ctx, pattern.MustParse("A -> B"), eval.Options{}, nil); !errors.Is(err, context.Canceled) || set != nil {
		t.Fatalf("Execute on a cancelled ctx = %v, %v; want context.Canceled", set, err)
	}
}
