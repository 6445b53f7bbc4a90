package experiments

import (
	"context"
	"fmt"
	"io"

	"wlq/internal/benchkit"
	"wlq/internal/clinic"
	"wlq/internal/core/eval"
	"wlq/internal/core/pattern"
	"wlq/internal/shard"
)

// runSharded (E13) measures shard-per-wid execution: because incidents never
// span workflow instances (Definition 4), the log partitions into wid-range
// shards that evaluate as isolated failure domains. Two claims are checked:
// the partition is free — the merged sharded result equals the single-domain
// result at every shard count — and it buys fault isolation: a fault that
// costs a single-domain evaluation the whole query costs a sharded one only
// the poisoned wid range, with the rest returned as a graceful partial
// result.
func runSharded(w io.Writer, quick bool) error {
	instances := 400
	if quick {
		instances = 80
	}
	l, err := clinic.Generate(instances, 7)
	if err != nil {
		return err
	}
	ix := eval.NewIndex(l)
	e := eval.New(ix, eval.Options{})
	// The E11 per-instance-quadratic query, so each shard carries real work.
	p := pattern.MustParse("(!A & !B) -> GetReimburse")
	serialSet := e.Eval(p)
	ctx := context.Background()

	shardCounts := []float64{1, 2, 4, 8}
	sw := benchkit.Run(
		fmt.Sprintf("sharded evaluation, %d instances", instances),
		"shards", shardCounts,
		func(v float64) (func(), map[string]float64) {
			x := shard.NewExecutor(ix, shard.Config{Shards: int(v)})
			set, comp, err := x.Execute(ctx, p, eval.Options{}, nil)
			same := 0.0
			if err == nil && comp.Complete && set.Equal(serialSet) {
				same = 1
			}
			return func() { x.Execute(ctx, p, eval.Options{}, nil) },
				map[string]float64{"|incL|": float64(serialSet.Len()), "equal": same}
		})
	fmt.Fprint(w, sw.Table())
	fmt.Fprintln(w, "expected: equal=1 everywhere — sharding never changes the answer; the")
	fmt.Fprintln(w, "per-shard overhead (goroutine, breaker check, budget slice) stays small")
	fmt.Fprintln(w)

	// Fault isolation: poison the last eighth of the wid space with a
	// persistent panic and run the same query as one failure domain versus
	// eight. One domain loses everything; eight lose one shard.
	wids := l.WIDs()
	cut := wids[len(wids)-len(wids)/8]
	eval.SetEvalHook(func(wid uint64) {
		if wid >= cut {
			panic("injected fault")
		}
	})
	defer eval.SetEvalHook(nil)

	rows := [][]string{{"failure domains", "outcome", "incidents", "wids covered"}}
	for _, n := range []int{1, 8} {
		x := shard.NewExecutor(ix, shard.Config{Shards: n, RetryPolicy: shard.RetryPolicy{MaxAttempts: 1}})
		set, comp, err := x.Execute(ctx, p, eval.Options{}, nil)
		outcome := "complete"
		switch {
		case err != nil:
			outcome = "query lost"
		case !comp.Complete:
			outcome = fmt.Sprintf("partial (%d/%d shards)", comp.Succeeded, comp.Shards)
		}
		incidents := 0
		if set != nil {
			incidents = set.Len()
		}
		rows = append(rows, []string{
			fmt.Sprint(n), outcome, fmt.Sprint(incidents),
			fmt.Sprintf("%d/%d", len(wids)-comp.ExcludedWIDs, len(wids)),
		})
	}
	fmt.Fprintf(w, "== fault isolation: persistent panic in wids ≥ %d ==\n", cut)
	fmt.Fprint(w, benchkit.Align(rows))
	fmt.Fprintln(w, "expected: one domain loses the query outright; eight domains return the")
	fmt.Fprintln(w, "seven clean shards' incidents and name the excluded wid range")
	return nil
}
