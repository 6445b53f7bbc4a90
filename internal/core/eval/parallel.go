package eval

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"

	"wlq/internal/core/incident"
	"wlq/internal/core/pattern"
	"wlq/internal/resilience"
)

// Incidents never span workflow instances (Definition 4 requires one wid),
// so incL(p) decomposes as a disjoint union over instances and the
// per-instance evaluations are embarrassingly parallel. Every entry point
// is a fold over one scan of the instances (scan, below): EvalParallel keeps
// each instance's incidents and concatenates them, Exists stops at the first
// non-empty instance, Count sums lengths. The answer does not depend on the
// number of goroutines.

// QueryStats collects per-query evaluation statistics. Pass a zero value to
// EvalParallelCtx and read it after the call returns; the query service
// aggregates these into its /metrics counters.
type QueryStats struct {
	// Workers is the number of goroutines actually used (1 = serial path).
	Workers int
	// Instances is the number of workflow instances evaluated. On a
	// cancelled query it counts the instances finished before the cancel.
	Instances int
	// Incidents is the number of incidents produced across all instances.
	Incidents int

	// Sharded-execution accounting, filled by internal/shard when the query
	// runs under the sharded executor (zero on the single-domain paths).
	// Shards is the number of failure domains the log was partitioned into;
	// ShardsFailed counts shards excluded from the result (failed after
	// retries, or skipped by an open circuit breaker); ShardRetries counts
	// re-attempts across all shards.
	Shards       int
	ShardsFailed int
	ShardRetries int
}

// EvalParallel computes incL(p) using up to workers goroutines (0 means
// GOMAXPROCS). The Index is immutable, so workers share it without locks.
func (e *Evaluator) EvalParallel(p pattern.Node, workers int) *incident.Set {
	return must(e.EvalParallelCtx(context.Background(), p, workers, nil))
}

// EvalParallelCtx is EvalParallel with cooperative cancellation, budget
// enforcement and per-query statistics, all as scan describes: when ctx is
// cancelled, a budget limit trips or an instance panics, the partial result
// is discarded and the error returned. stats, when non-nil, is filled in
// before returning — on both the success and the failure path.
func (e *Evaluator) EvalParallelCtx(ctx context.Context, p pattern.Node, workers int, stats *QueryStats) (*incident.Set, error) {
	return e.collect(ctx, p, e.src.WIDs(), workers, stats)
}

// EvalWIDsCtx evaluates p over exactly the given workflow instances — the
// per-shard entry point of internal/shard and the cluster worker's — with
// the same cancellation, budget enforcement (a fresh budget state per call)
// and panic isolation as EvalParallelCtx. Evaluation is serial: a sharded
// execution gets its parallelism from concurrent shards, not from workers
// within one. The returned set is exactly the restriction of incL(p) to the
// given wids.
func (e *Evaluator) EvalWIDsCtx(ctx context.Context, p pattern.Node, wids []uint64, stats *QueryStats) (*incident.Set, error) {
	return e.collect(ctx, p, wids, 1, stats)
}

// collect keeps every instance's incidents. Each instance's slice is
// normalized, so with ascending wids their concatenation is already
// canonical and MergeSorted only copies.
func (e *Evaluator) collect(ctx context.Context, p pattern.Node, wids []uint64, workers int, stats *QueryStats) (*incident.Set, error) {
	results := make([][]incident.Incident, len(wids))
	err := e.scan(ctx, p, wids, workers, stats, func(i int, incs []incident.Incident) bool {
		results[i] = incs
		return true
	})
	if err != nil {
		return nil, err
	}
	return incident.MergeSorted(results...), nil
}

// Exists reports whether incL(p) is non-empty, short-circuiting across
// workflow instances: evaluation stops at the first instance containing an
// incident. This answers the paper's yes/no queries ("are there any
// students who ...") without enumerating every match.
func (e *Evaluator) Exists(p pattern.Node) bool {
	return must(e.ExistsCtx(context.Background(), p))
}

// ExistsCtx is Exists under ctx, Options.Budget and panic isolation.
func (e *Evaluator) ExistsCtx(ctx context.Context, p pattern.Node) (bool, error) {
	found := false // one goroutine: the visitor needs no synchronisation
	err := e.scan(ctx, p, e.src.WIDs(), 1, nil, func(_ int, incs []incident.Incident) bool {
		found = len(incs) > 0
		return !found
	})
	return found, err
}

// scan is the one loop over workflow instances behind every entry point.
// It compiles p, then evaluates it on the given wids in contiguous chunks,
// one per goroutine, on up to workers goroutines (0 means GOMAXPROCS; one
// runs on the caller's). Before each instance it checks ctx and calls the
// fault hook; the evaluation runs under the safeEvalWID isolation boundary,
// so a panic becomes a *resilience.PanicError and one poisoned query cannot
// take the process down; budget limits are checked inside the joins at the
// resilience.CheckInterval stride and, with the result size, as each
// instance's incidents are charged to the budget state the goroutines
// share. visit then receives the incidents of wids[i]; it is called from
// every goroutine (for distinct i) and ends the scan early, without error,
// by returning false. The first failure stops every goroutine; when several
// fail, or one fails while ctx is cancelled, the error returned is the
// highest-ranked (errRank), not whichever lost the race. stats, when
// non-nil, counts the instances whose incidents were produced before the
// scan ended.
func (e *Evaluator) scan(ctx context.Context, p pattern.Node, wids []uint64, workers int, stats *QueryStats, visit func(i int, incs []incident.Incident) bool) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = max(1, min(workers, len(wids)))
	prog := e.compile(p)
	bs := newBudgetState(e.opts.Budget)
	ctxDone := ctx.Done()
	var stop atomic.Bool

	// chunk is what one goroutine did: instances and incidents produced,
	// and the failure that ended it.
	type chunk struct {
		instances, incidents int
		err                  error
	}
	one := func(vals [][]incident.Incident, wid uint64) ([]incident.Incident, error) {
		select {
		case <-ctxDone:
			return nil, ctx.Err()
		default:
		}
		incs, err := e.safeEvalWID(prog, vals, wid, bs)
		if err != nil {
			return nil, err
		}
		return incs, bs.addResult(incs)
	}
	run := func(lo, hi int) (c chunk) {
		vals := make([][]incident.Incident, len(prog))
		for i := lo; i < hi && !stop.Load(); i++ {
			incs, err := one(vals, wids[i])
			if err != nil {
				c.err = err
				stop.Store(true)
				break
			}
			c.instances++
			c.incidents += len(incs)
			if !visit(i, incs) {
				stop.Store(true)
			}
		}
		return c
	}

	// Contiguous chunks, one per goroutine: per-instance work is often tiny,
	// so per-item handoff (a channel send per instance) would dominate.
	chunks := make([]chunk, workers)
	if workers == 1 {
		chunks[0] = run(0, len(wids))
	} else {
		var wg sync.WaitGroup
		size := (len(wids) + workers - 1) / workers
		for lo := 0; lo < len(wids); lo += size {
			wg.Add(1)
			go func() {
				defer wg.Done()
				chunks[lo/size] = run(lo, min(lo+size, len(wids)))
			}()
		}
		wg.Wait()
	}

	var total chunk
	for _, c := range chunks {
		total.instances += c.instances
		total.incidents += c.incidents
		if c.err != nil && (total.err == nil || errRank(c.err) > errRank(total.err)) {
			total.err = c.err
		}
	}
	if stats != nil {
		stats.Workers = workers
		stats.Instances = total.instances
		stats.Incidents = total.incidents
	}
	return total.err
}

// errRank orders the failures one scan can collect, so which one the caller
// sees does not depend on goroutine scheduling: a panic is a bug that must
// surface, a budget trip is a verdict on the query, a cancellation only
// says the caller stopped waiting.
func errRank(err error) int {
	var pe *resilience.PanicError
	var be *resilience.BudgetError
	switch {
	case errors.As(err, &pe):
		return 3
	case errors.As(err, &be):
		return 2
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return 1
	default:
		return 0
	}
}
