package shard

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"wlq/internal/core/eval"
	"wlq/internal/core/incident"
	"wlq/internal/core/pattern"
	"wlq/internal/resilience"
	"wlq/internal/wlog"
)

// buildLog builds one workflow instance per entry of pairs, instance i
// holding pairs[i] interleaved A/B activity pairs. Builder wids are
// sequential from 1, so with 4 shards over 16 instances the
// shards are exactly wids 1–4, 5–8, 9–12, 13–16.
func buildLog(t *testing.T, pairs []int) *wlog.Log {
	t.Helper()
	var b wlog.Builder
	for _, n := range pairs {
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

func uniformPairs(instances, n int) []int {
	p := make([]int, instances)
	for i := range p {
		p[i] = n
	}
	return p
}

// detCfg returns a fully deterministic executor config: no real sleeping
// (delays are recorded instead), fixed jitter draw.
func detCfg(shards int) (Config, *[]time.Duration) {
	var (
		mu    sync.Mutex
		slept []time.Duration
	)
	cfg := Config{
		Shards: shards,
		RetryPolicy: RetryPolicy{
			Sleep: func(d time.Duration) {
				mu.Lock()
				slept = append(slept, d)
				mu.Unlock()
			},
			Rand: func() float64 { return 0.5 }, // jitter factor exactly 1
		},
	}
	return cfg, &slept
}

// widHook installs an eval hook that panics persistently for every wid
// admitted by match, and removes it on test cleanup.
func widHook(t *testing.T, match func(wid uint64) bool) {
	t.Helper()
	eval.SetEvalHook(func(wid uint64) {
		if match(wid) {
			panic("chaos: injected shard fault")
		}
	})
	t.Cleanup(func() { eval.SetEvalHook(nil) })
}

// filterBelow keeps the incidents of wids < cut — the expected surviving
// result when the top shard is lost.
func filterBelow(s *incident.Set, cut uint64) *incident.Set {
	var keep []incident.Incident
	for _, o := range s.Incidents() {
		if o.WID() < cut {
			keep = append(keep, o)
		}
	}
	return incident.NewSet(keep...)
}

// TestShardChaosEqualUnsharded is the no-fault half of the acceptance
// criterion: for all four operators, the sharded result is byte-identical
// to the single-domain evaluator's.
func TestShardChaosEqualUnsharded(t *testing.T) {
	ix := eval.NewIndex(buildLog(t, uniformPairs(16, 3)))
	for _, q := range []string{"A . B", "A -> B", "A | B", "A & B"} {
		p := pattern.MustParse(q)
		want, err := eval.New(ix, eval.Options{}).EvalParallelCtx(context.Background(), p, 1, nil)
		if err != nil {
			t.Fatalf("%s: unsharded eval: %v", q, err)
		}
		cfg, _ := detCfg(4)
		x := NewExecutor(ix, cfg)
		var stats eval.QueryStats
		got, comp, err := x.Execute(context.Background(), p, eval.Options{}, &stats)
		if err != nil {
			t.Fatalf("%s: sharded eval: %v", q, err)
		}
		if !comp.Complete || comp.Succeeded != 4 || comp.Failed != 0 || comp.Skipped != 0 {
			t.Fatalf("%s: completeness = %+v, want 4/4 complete", q, comp)
		}
		if !got.Equal(want) {
			t.Fatalf("%s: sharded result differs from unsharded:\n got %s\nwant %s", q, got, want)
		}
		if got.String() != want.String() {
			t.Fatalf("%s: sharded rendering differs from unsharded", q)
		}
		if stats.Shards != 4 || stats.ShardsFailed != 0 || stats.ShardRetries != 0 {
			t.Fatalf("%s: stats = %+v, want 4 clean shards", q, stats)
		}
		if want.Len() > 0 && stats.Incidents != want.Len() {
			t.Fatalf("%s: stats.Incidents = %d, want %d", q, stats.Incidents, want.Len())
		}
	}
}

// TestShardChaosPanicShardPartial is the fault half of the acceptance
// criterion: one of four shards panics persistently; the query survives,
// returns the other shards' incidents, and Completeness names the excluded
// wid range and the cause.
func TestShardChaosPanicShardPartial(t *testing.T) {
	p := pattern.MustParse("A -> B")
	ix := eval.NewIndex(buildLog(t, uniformPairs(16, 3)))
	full, err := eval.New(ix, eval.Options{}).EvalParallelCtx(context.Background(), p, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := filterBelow(full, 13) // shard 3 (wids 13–16) is lost

	widHook(t, func(wid uint64) bool { return wid >= 13 })
	cfg, slept := detCfg(4)
	cfg.MaxAttempts = 2
	x := NewExecutor(ix, cfg)

	var stats eval.QueryStats
	got, comp, err := x.Execute(context.Background(), p, eval.Options{}, &stats)
	if err != nil {
		t.Fatalf("Execute returned error %v; partial results must not be errors", err)
	}
	if got == nil || !got.Equal(want) {
		t.Fatalf("partial result = %v, want the three surviving shards' incidents %v", got, want)
	}
	if comp.Complete {
		t.Fatal("Completeness.Complete = true with a failed shard")
	}
	if comp.Shards != 4 || comp.Attempted != 4 || comp.Succeeded != 3 ||
		comp.Failed != 1 || comp.Skipped != 0 {
		t.Fatalf("completeness counts = %+v, want 3 of 4 succeeded, 1 failed", comp)
	}
	if comp.Retries != 1 || comp.ExcludedWIDs != 4 {
		t.Fatalf("retries=%d excluded=%d, want 1 retry and 4 excluded wids", comp.Retries, comp.ExcludedWIDs)
	}
	if len(comp.Failures) != 1 {
		t.Fatalf("Failures = %+v, want exactly one entry", comp.Failures)
	}
	f := comp.Failures[0]
	if f.Shard != 3 || f.WIDMin != 13 || f.WIDMax != 16 || f.WIDs != 4 {
		t.Fatalf("failure names shard %d wids %d–%d (%d), want shard 3 wids 13–16 (4)",
			f.Shard, f.WIDMin, f.WIDMax, f.WIDs)
	}
	if f.Attempts != 2 || f.Skipped {
		t.Fatalf("failure attempts=%d skipped=%v, want 2 attempts, not skipped", f.Attempts, f.Skipped)
	}
	if !strings.Contains(f.Cause, "panic") {
		t.Fatalf("failure cause %q does not name the panic", f.Cause)
	}
	if stats.Shards != 4 || stats.ShardsFailed != 1 || stats.ShardRetries != 1 {
		t.Fatalf("stats = %+v, want shards=4 failed=1 retries=1", stats)
	}
	// Exactly one backoff sleep (between the two attempts), at the exact
	// deterministic schedule value: Delay(1, u=0.5) = Base.
	if len(*slept) != 1 || (*slept)[0] != DefaultBackoffBase {
		t.Fatalf("slept %v, want exactly [%v]", *slept, DefaultBackoffBase)
	}
}

// TestShardChaosBudgetSlicePartial trips one shard's budget slice: the
// instances of the top shard are two orders of magnitude heavier, the
// output budget divides evenly across shards, and only the heavy shard
// exhausts its slice. Budget faults are deterministic, so no retry.
func TestShardChaosBudgetSlicePartial(t *testing.T) {
	p := pattern.MustParse("A -> B")
	// wids 1–12 hold 2 A/B pairs (3 sequential incidents each); wids 13–16
	// hold 40 pairs (820 incidents each).
	pairs := append(uniformPairs(12, 2), 40, 40, 40, 40)
	ix := eval.NewIndex(buildLog(t, pairs))
	full, err := eval.New(ix, eval.Options{}).EvalParallelCtx(context.Background(), p, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := filterBelow(full, 13)

	cfg, slept := detCfg(4)
	x := NewExecutor(ix, cfg)
	// 400 outputs across 4 shards = 100 per slice: the light shards emit 12
	// each, the heavy shard trips on its first instance (820 > 100).
	opts := eval.Options{Budget: resilience.Budget{MaxOutputs: 400}}
	var stats eval.QueryStats
	got, comp, err := x.Execute(context.Background(), p, opts, &stats)
	if err != nil {
		t.Fatalf("Execute returned error %v; partial results must not be errors", err)
	}
	if !got.Equal(want) {
		t.Fatalf("partial result = %v, want the light shards' incidents %v", got, want)
	}
	if comp.Complete || comp.Succeeded != 3 || comp.Failed != 1 || comp.ExcludedWIDs != 4 {
		t.Fatalf("completeness = %+v, want 3/4 with the heavy shard excluded", comp)
	}
	f := comp.Failures[0]
	if f.WIDMin != 13 || f.WIDMax != 16 {
		t.Fatalf("excluded range %d–%d, want 13–16", f.WIDMin, f.WIDMax)
	}
	if !strings.Contains(f.Cause, "budget") {
		t.Fatalf("failure cause %q does not name the budget", f.Cause)
	}
	// Budget errors are non-retryable: one attempt, no backoff sleeps.
	if f.Attempts != 1 || comp.Retries != 0 || len(*slept) != 0 {
		t.Fatalf("attempts=%d retries=%d slept=%v, want a single attempt and no retries",
			f.Attempts, comp.Retries, *slept)
	}
}

// TestShardChaosBreakerSkipsPoisonedShard drives the full breaker cycle
// across queries on one long-lived executor: fail → open (skipped without
// attempts) → cooldown elapses → half-open probe succeeds → closed.
func TestShardChaosBreakerSkipsPoisonedShard(t *testing.T) {
	clk := installClock(t)
	p := pattern.MustParse("A . B")
	ix := eval.NewIndex(buildLog(t, uniformPairs(16, 3)))

	cfg, _ := detCfg(4)
	cfg.MaxAttempts = 1
	cfg.BreakerThreshold = 1
	cfg.BreakerCooldown = time.Minute
	x := NewExecutor(ix, cfg)
	if x.OpenBreakers() != 0 {
		t.Fatalf("fresh executor reports %d open breakers", x.OpenBreakers())
	}

	// Query 1: shard 3 panics once; threshold 1 opens its breaker.
	widHook(t, func(wid uint64) bool { return wid >= 13 })
	_, comp, err := x.Execute(context.Background(), p, eval.Options{}, nil)
	if err != nil || comp.Failed != 1 || comp.Skipped != 0 {
		t.Fatalf("query 1: err=%v comp=%+v, want one failed shard", err, comp)
	}
	if x.OpenBreakers() != 1 {
		t.Fatalf("after failure, OpenBreakers = %d, want 1", x.OpenBreakers())
	}

	// Query 2: the breaker is open, so the poisoned shard is skipped with
	// zero attempts — the hook must not even fire for its wids.
	eval.SetEvalHook(func(wid uint64) {
		if wid >= 13 {
			t.Errorf("open breaker let wid %d be evaluated", wid)
		}
	})
	_, comp, err = x.Execute(context.Background(), p, eval.Options{}, nil)
	if err != nil {
		t.Fatalf("query 2: %v", err)
	}
	if comp.Skipped != 1 || comp.Failed != 0 || comp.Attempted != 3 {
		t.Fatalf("query 2 completeness = %+v, want the shard skipped without attempts", comp)
	}
	f := comp.Failures[0]
	if f.Attempts != 0 || !f.Skipped {
		t.Fatalf("query 2 failure = %+v, want attempts=0 skipped=true", f)
	}
	if !strings.Contains(f.Cause, "circuit breaker open") || !strings.Contains(f.Cause, "13–16") {
		t.Fatalf("query 2 cause %q must name the open breaker and the wid range", f.Cause)
	}

	// Query 3: cooldown elapsed and the fault is gone — the half-open probe
	// succeeds and the result is complete again.
	eval.SetEvalHook(nil)
	clk.advance(time.Minute)
	got, comp, err := x.Execute(context.Background(), p, eval.Options{}, nil)
	if err != nil || !comp.Complete {
		t.Fatalf("query 3: err=%v comp=%+v, want recovery to a complete result", err, comp)
	}
	want, _ := eval.New(ix, eval.Options{}).EvalParallelCtx(context.Background(), p, 1, nil)
	if !got.Equal(want) {
		t.Fatal("recovered result differs from the unsharded evaluation")
	}
	if x.OpenBreakers() != 0 {
		t.Fatalf("after recovery, OpenBreakers = %d, want 0", x.OpenBreakers())
	}
}

// TestShardChaosAllShardsLost: when nothing survives there is no partial
// result to return — Execute reports the first shard error.
func TestShardChaosAllShardsLost(t *testing.T) {
	ix := eval.NewIndex(buildLog(t, uniformPairs(8, 2)))
	widHook(t, func(uint64) bool { return true })
	cfg, _ := detCfg(4)
	cfg.MaxAttempts = 1
	x := NewExecutor(ix, cfg)
	set, comp, err := x.Execute(context.Background(), pattern.MustParse("A . B"), eval.Options{}, nil)
	if err == nil || set != nil {
		t.Fatalf("Execute = (%v, %v), want a hard error when zero shards survive", set, err)
	}
	if comp.Succeeded != 0 || comp.Failed != 4 {
		t.Fatalf("completeness = %+v, want all 4 shards failed", comp)
	}
	var pe *resilience.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("error %v does not unwrap to a PanicError", err)
	}
}

// TestShardChaosContextCancel: a dead caller context is a query-level
// failure, not a shard fault — no retries, and no breaker trips.
func TestShardChaosContextCancel(t *testing.T) {
	ix := eval.NewIndex(buildLog(t, uniformPairs(16, 3)))
	cfg, slept := detCfg(4)
	x := NewExecutor(ix, cfg)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := x.Execute(ctx, pattern.MustParse("A -> B"), eval.Options{}, nil)
	if err != context.Canceled {
		t.Fatalf("Execute on cancelled ctx = %v, want context.Canceled", err)
	}
	if x.OpenBreakers() != 0 {
		t.Fatalf("cancellation tripped %d breakers, want 0", x.OpenBreakers())
	}
	if len(*slept) != 0 {
		t.Fatalf("cancellation caused backoff sleeps %v, want none", *slept)
	}
}
