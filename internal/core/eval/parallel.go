package eval

import (
	"context"
	"errors"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"wlq/internal/core/incident"
	"wlq/internal/core/pattern"
	"wlq/internal/resilience"
)

// Incidents never span workflow instances (Definition 4 requires one wid),
// so incL(p) decomposes as a disjoint union over instances and the
// per-instance evaluations are embarrassingly parallel. EvalParallel
// exploits this: instances are distributed over a worker pool and the
// per-instance results concatenated. The result is identical to Eval.

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
	set, _ := e.EvalParallelCtx(context.Background(), p, workers, nil)
	return set
}

// EvalParallelCtx is EvalParallel with cooperative cancellation, budget
// enforcement and per-query statistics. Cancellation is checked between
// instances, budget limits additionally inside the joins at the
// resilience.CheckInterval stride; when ctx is cancelled or a budget limit
// trips, the partial result is discarded and the error returned. Worker
// panics do not escape: each instance evaluation runs under an isolation
// boundary (safeEvalWID) that converts a panic into a *resilience.PanicError
// so one poisoned query cannot take the process down. When several workers
// fail, or one fails while ctx is cancelled, the error returned is the
// highest-ranked one (errRank), not whichever lost the race. stats, when
// non-nil, is filled in before returning — on both the success and the
// failure path.
func (e *Evaluator) EvalParallelCtx(ctx context.Context, p pattern.Node, workers int, stats *QueryStats) (*incident.Set, error) {
	wids := e.src.WIDs()
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(wids) {
		workers = len(wids)
	}
	bs := newBudgetState(e.opts.Budget)
	if workers <= 1 {
		return e.evalSerialCtx(ctx, p, stats, bs)
	}
	if stats != nil {
		stats.Workers = workers
	}

	// Contiguous chunks, one per worker: per-instance work is often tiny,
	// so per-item handoff (a channel send per instance) would dominate.
	results := make([][]incident.Incident, len(wids))
	var (
		wg        sync.WaitGroup
		done      int64 // instances completed, across workers
		cancelled atomic.Bool
		errMu     sync.Mutex
		evalErr   error // highest-ranked failure; read after wg.Wait
	)
	fail := func(err error) {
		errMu.Lock()
		if evalErr == nil || errRank(err) > errRank(evalErr) {
			evalErr = err
		}
		errMu.Unlock()
		cancelled.Store(true)
	}
	ctxDone := ctx.Done()
	chunk := (len(wids) + workers - 1) / workers
	for start := 0; start < len(wids); start += chunk {
		end := start + chunk
		if end > len(wids) {
			end = len(wids)
		}
		wg.Add(1)
		go func(start, end int) {
			defer wg.Done()
			for i := start; i < end; i++ {
				if cancelled.Load() {
					return
				}
				select {
				case <-ctxDone:
					cancelled.Store(true)
					return
				default:
				}
				incs, err := e.safeEvalWID(p, wids[i], bs)
				if err != nil {
					fail(err)
					return
				}
				if err := bs.addResult(incs); err != nil {
					fail(err)
					return
				}
				results[i] = incs
				atomic.AddInt64(&done, 1)
			}
		}(start, end)
	}
	wg.Wait()

	total := 0
	for _, r := range results {
		total += len(r)
	}
	if stats != nil {
		stats.Instances = int(done)
		stats.Incidents = total
	}
	if err := ctx.Err(); err != nil {
		fail(err)
	}
	if evalErr != nil {
		return nil, evalErr
	}

	// Per-instance slices are individually normalized and instance ids are
	// ascending, so concatenation in wid order is already canonical.
	flat := make([]incident.Incident, 0, total)
	for _, r := range results {
		flat = append(flat, r...)
	}
	return setFromSorted(flat), nil
}

// errRank orders the failures one parallel evaluation can collect, so which
// one the caller sees does not depend on goroutine scheduling: a panic is a
// bug that must surface, a budget trip is a verdict on the query, a
// cancellation only says the caller stopped waiting.
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

// EvalWIDsCtx evaluates p over exactly the given workflow instances — the
// per-shard entry point of internal/shard — with the same cooperative
// cancellation, budget enforcement (Options.Budget, a fresh budget state
// per call) and panic isolation as EvalParallelCtx. Evaluation is serial:
// a sharded execution gets its parallelism from concurrent shards, not
// from workers within one. The returned set is exactly the restriction of
// incL(p) to the given wids.
func (e *Evaluator) EvalWIDsCtx(ctx context.Context, p pattern.Node, wids []uint64, stats *QueryStats) (*incident.Set, error) {
	return e.evalWIDList(ctx, p, wids, stats, newBudgetState(e.opts.Budget))
}

// evalSerialCtx is the workers<=1 path of EvalParallelCtx: Eval with
// per-instance cancellation checks, budget enforcement, panic isolation
// and stats.
func (e *Evaluator) evalSerialCtx(ctx context.Context, p pattern.Node, stats *QueryStats, bs *budgetState) (*incident.Set, error) {
	return e.evalWIDList(ctx, p, e.src.WIDs(), stats, bs)
}

// evalWIDList is the shared serial evaluation loop over an explicit wid
// list, under the full isolation boundary (safeEvalWID + budget + ctx).
func (e *Evaluator) evalWIDList(ctx context.Context, p pattern.Node, wids []uint64, stats *QueryStats, bs *budgetState) (*incident.Set, error) {
	if stats != nil {
		stats.Workers = 1
	}
	ctxDone := ctx.Done()
	set := &incident.Set{}
	for _, wid := range wids {
		select {
		case <-ctxDone:
			return nil, ctx.Err()
		default:
		}
		incs, err := e.safeEvalWID(p, wid, bs)
		if err != nil {
			return nil, err
		}
		if err := bs.addResult(incs); err != nil {
			return nil, err
		}
		set.Add(incs...)
		if stats != nil {
			stats.Instances++
			stats.Incidents += len(incs)
		}
	}
	set.Normalize()
	return set, nil
}

// ExistsParallel is Exists with a parallel scan over instances; it still
// stops early (workers poll a shared found flag via a closed channel).
func (e *Evaluator) ExistsParallel(p pattern.Node, workers int) bool {
	wids := e.src.WIDs()
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(wids) {
		workers = len(wids)
	}
	if workers <= 1 {
		return e.Exists(p)
	}

	var (
		wg    sync.WaitGroup
		found atomic.Bool
	)
	// Interleaved assignment (worker w takes wids w, w+workers, ...) so all
	// workers touch early instances first: existence hits near the front of
	// the log short-circuit quickly regardless of chunk boundaries.
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(wids); i += workers {
				if found.Load() {
					return
				}
				if len(e.evalWID(p, wids[i], nil)) > 0 {
					found.Store(true)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	return found.Load()
}

// setFromSorted builds a Set from incidents already in canonical order
// without re-sorting (the per-instance evaluator guarantees order).
func setFromSorted(incs []incident.Incident) *incident.Set {
	// Defensive: verify order in debug-ish O(n) pass; fall back to a full
	// normalize if a violation sneaks in (should be unreachable).
	for i := 1; i < len(incs); i++ {
		if incs[i-1].Compare(incs[i]) >= 0 {
			sort.Slice(incs, func(a, b int) bool { return incs[a].Compare(incs[b]) < 0 })
			break
		}
	}
	return incident.NewSet(incs...)
}
