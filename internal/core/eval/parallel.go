package eval

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"wlq/internal/core/incident"
	"wlq/internal/core/pattern"
	"wlq/internal/resilience"
)

// Incidents never span workflow instances (Definition 4 requires one wid),
// so incL(p) decomposes as a disjoint union over instances and the
// per-instance evaluations are embarrassingly parallel. Every entry point is
// a fold over one scan of the instances (scan, below), in the shape the
// caller asked for: the incidents shape keeps each instance's incidents in
// wid order, the instance list keeps the wids that had any, the count only
// sums, and Exists stops at the first non-empty instance. The answer does
// not depend on the number of goroutines.
//
// The same decomposition makes each instance its own failure domain: an
// instance whose evaluation panics is excluded and named in the answer, and
// the answer is incL(p) restricted to the other instances. AnswerCtx hands
// the exclusions to its caller, which decides whether a partial answer is an
// answer; every other entry point answers all or nothing and fails with the
// first excluded instance's panic.

// Shape is what an evaluation is asked to produce. The shapes are ordered
// richest first: an answer in one shape yields the answer in every later one.
type Shape int

const (
	// ShapeIncidents is incL(p) itself, the zero value.
	ShapeIncidents Shape = iota
	// ShapeInstances is the workflow instances with an incident, ascending,
	// and |incL(p)|.
	ShapeInstances
	// ShapeCount is |incL(p)| alone.
	ShapeCount
)

// String names the shape as the query service's modes and the worker wire do.
func (s Shape) String() string {
	switch s {
	case ShapeIncidents:
		return "incidents"
	case ShapeInstances:
		return "instances"
	case ShapeCount:
		return "count"
	default:
		return fmt.Sprintf("Shape(%d)", int(s))
	}
}

// ParseShape is the inverse of String; the empty name is ShapeIncidents.
func ParseShape(name string) (Shape, error) {
	for _, s := range []Shape{ShapeIncidents, ShapeInstances, ShapeCount} {
		if name == s.String() {
			return s, nil
		}
	}
	if name == "" {
		return ShapeIncidents, nil
	}
	return 0, fmt.Errorf("unknown mode %q (want incidents, instances or count)", name)
}

// Answer is incL(p) in the shape asked for, restricted to the instances not
// excluded. A cheaper shape can be read off a richer one (the incidents'
// wids, Count > 0), never the reverse.
type Answer struct {
	// Count is |incL(p)|, in every shape.
	Count int
	// WIDs is set under ShapeInstances.
	WIDs []uint64
	// Incidents is set by AnswerCtx under ShapeIncidents: the blocks the scan
	// kept the answer in (resultArena), which concatenate in canonical order
	// and alias neither the source nor any scratch.
	Incidents [][]incident.Incident
	// Wire is set by ServeCtx under ShapeIncidents instead: the answer in
	// wire form, as lists in canonical order one after another, each the
	// bytes incident.AppendWire wrote — one per scan goroutine ("[]" when it
	// found none), or, answered by a coordinator, one per part as its worker
	// sent it. Nothing joins them: incident.AppendArray writes them as one
	// list, incident.CutIncidents and incident.IncidentWIDs read them as one.
	// Recycle hands a served answer's buffers to later scans.
	Wire [][]byte
	// Excluded are the instances whose evaluation panicked, ascending by wid:
	// nothing of theirs is in the answer.
	Excluded []Exclusion
}

// Exclusion is one workflow instance left out of an answer, with the panic
// its evaluation was stopped by.
type Exclusion struct {
	WID uint64
	Err *resilience.PanicError
}

// Strict is err as a caller that accepts no partial answer sees it: when err
// is nil and an instance was excluded, the first excluded instance's panic.
func (a Answer) Strict(err error) error {
	if err == nil && len(a.Excluded) > 0 {
		return a.Excluded[0].Err
	}
	return err
}

// QueryStats collects per-query evaluation statistics. Pass a zero value to
// EvalParallelCtx and read it after the call returns; the query service
// aggregates these into its /metrics counters.
type QueryStats struct {
	// Workers is the number of goroutines actually used (1 = serial path).
	Workers int
	// Instances is the number of workflow instances the answer covers,
	// excluded ones not included: those evaluated, and those the scan skipped
	// because the plan's required-atom formula rules them out, whose share
	// of the answer is empty by Definition 4 (cover.go). On a cancelled
	// query it counts the instances covered before the cancel.
	Instances int
	// Incidents is the number of incidents of the answer across all
	// instances, whether they were produced or only counted.
	Incidents int
}

// EvalParallel computes incL(p) using up to workers goroutines (0 means
// GOMAXPROCS). A Source is immutable, so workers share it without locks.
func (e *Evaluator) EvalParallel(p pattern.Node, workers int) *incident.Set {
	return must(e.EvalParallelCtx(context.Background(), p, workers, nil))
}

// EvalParallelCtx is EvalParallel with cooperative cancellation, budget
// enforcement and per-query statistics, all as scan describes: when ctx is
// cancelled, a budget limit trips or an instance panics, the partial result
// is discarded and the error returned. stats, when non-nil, is filled in
// before returning — on both the success and the failure path.
func (e *Evaluator) EvalParallelCtx(ctx context.Context, p pattern.Node, workers int, stats *QueryStats) (*incident.Set, error) {
	return e.evalSet(ctx, p, e.src.WIDs(), workers, stats)
}

// AnswerCtx evaluates p over exactly the given workflow instances (ascending)
// and answers in the given shape — the entry point the library's others
// wrap. An instance whose evaluation panics is excluded (Answer.Excluded) and
// the scan goes on; a cancelled ctx or a tripped budget fails the whole
// evaluation, never excludes.
func (e *Evaluator) AnswerCtx(ctx context.Context, p pattern.Node, wids []uint64, workers int, shape Shape, stats *QueryStats) (Answer, error) {
	return e.scan(ctx, p, wids, workers, shape, false, stats, false)
}

// ServeCtx is AnswerCtx for a caller that serves the answer as bytes: the
// entry point of the query service and of the cluster worker. Under
// ShapeIncidents no incident is kept. Each scan goroutine writes its
// instances' incidents as each instance succeeds into one complete
// wire-form list, in a buffer from the pool Recycle fills, and the answer is
// those lists in wid order (Answer.Wire), as they were written. The other
// shapes answer as under AnswerCtx.
func (e *Evaluator) ServeCtx(ctx context.Context, p pattern.Node, wids []uint64, workers int, shape Shape, stats *QueryStats) (Answer, error) {
	return e.scan(ctx, p, wids, workers, shape, true, stats, false)
}

// evalSet is AnswerCtx in the incidents shape, all or nothing, as an
// incident.Set: what the library entry points return (Eval, EvalParallel,
// EvalParallelCtx). It is the one place the evaluator builds a set.
func (e *Evaluator) evalSet(ctx context.Context, p pattern.Node, wids []uint64, workers int, stats *QueryStats) (*incident.Set, error) {
	a, err := e.AnswerCtx(ctx, p, wids, workers, ShapeIncidents, stats)
	if err = a.Strict(err); err != nil {
		return nil, err
	}
	return incident.MergeSorted(a.Incidents...), nil
}

// Count returns |incL(p)|.
func (e *Evaluator) Count(p pattern.Node) int {
	return must(e.CountCtx(context.Background(), p))
}

// CountCtx is Count under ctx, Options.Budget and panic isolation.
func (e *Evaluator) CountCtx(ctx context.Context, p pattern.Node) (int, error) {
	a, err := e.scan(ctx, p, e.src.WIDs(), 1, ShapeCount, false, nil, false)
	return a.Count, a.Strict(err)
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
	a, err := e.scan(ctx, p, e.src.WIDs(), 1, ShapeCount, false, nil, true)
	return a.Count > 0, a.Strict(err)
}

// chunk is what one goroutine of a scan did: instances covered, their
// incidents (counted, and under ShapeIncidents kept or written), under
// ShapeInstances the wids of those with an incident, the instances
// excluded, and the failure that ended it.
type chunk struct {
	instances, incidents int
	kept                 *resultArena // under ShapeIncidents, unless served
	wire                 []byte       // under ShapeIncidents, served: the chunk's list
	wids                 []uint64     // under ShapeInstances
	excluded             []Exclusion
	err                  error
}

// scan is the one loop over workflow instances behind every entry point.
// It compiles p. A lone unguarded atom counted over the source's whole wid
// list is answered from the source's statistics (fromStatistics), reading
// no instance. Otherwise scan resolves each of the given wids to its
// position in the source once (cover.go), keeping, under StrategyMerge,
// only the instances the plan's required-atom formula admits; every other
// instance is covered with an empty share. It then evaluates the kept ones
// in contiguous, wid-ordered runs, one per goroutine, on up to workers
// goroutines (0 means GOMAXPROCS; one runs on the caller's), each
// instance's atoms reading one posting row (Source.Row). Where the shape
// needs no incident and the program is countable (count.go), an instance is
// counted; otherwise its incidents are enumerated.
//
// ctx is the scan's one clock: the budget's MaxWallTime is a deadline on it
// (cause errWallTime, reported as the wall-time *BudgetError). Its end sets
// the scan's stop flag, which each run reads before each instance; the
// joins poll it every resilience.CheckInterval comparisons; and each run
// reads ctx once as it ends, so a done ctx fails the scan with its cause.
//
// Each run evaluates its instances under one recover, and calls the fault
// hook, loaded once per run, before each. A panic becomes a
// *resilience.PanicError that excludes the instance being evaluated, and
// the run resumes at the next one under a fresh recover; the work limits
// are checked inside the joins at the CheckInterval stride and, with the
// result size, as each instance's incidents are charged to the budget state
// the goroutines share. With first set, the scan stops, without error, at
// the first instance with an incident (ExistsCtx). A budget trip or a done
// ctx stops every goroutine and fails the scan; when both happen, the error
// returned is the higher-ranked (errRank), not whichever lost the race.
// A failed scan answers nothing. Otherwise it answers with the number of
// incidents of the instances it covered and the instances it excluded,
// ascending; under ShapeInstances with the wids
// of those that had any, ascending; and under ShapeIncidents with the
// incidents themselves: kept (resultArena), or, served, as each
// goroutine's wire-form list. stats, when non-nil, counts the covered
// instances too.
func (e *Evaluator) scan(ctx context.Context, p pattern.Node, wids []uint64, workers int, shape Shape, served bool, stats *QueryStats, first bool) (Answer, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	prog := e.compile(p)
	counted := prog.counted(shape, e.opts.Strategy)
	var started time.Time // when the wall-time budget started
	if limit := e.opts.Budget.MaxWallTime; limit > 0 {
		started = time.Now()
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadlineCause(ctx, started.Add(limit), errWallTime)
		defer cancel()
	}

	var chunks []chunk
	if e.fromStatistics(prog, wids, counted, first) {
		workers = 1
		chunks = []chunk{e.statistics(&prog[0], wids, shape)}
		chunks[0].err = context.Cause(ctx)
	} else {
		cv := e.cover(prog, wids)
		workers = max(1, min(workers, cv.n))
		chunks = make([]chunk, workers)
		e.runs(ctx, prog, wids, cv, counted, shape, served, first, chunks)
	}

	// Chunks are contiguous and in wid order, so their exclusions, hits, and
	// the blocks or lists their incidents were kept or written in,
	// concatenate in wid order; each instance's incidents are normalized, so
	// the concatenation is the answer in canonical order.
	var (
		total  chunk
		blocks [][]incident.Incident // ShapeIncidents: the answer
		lists  [][]byte              // ShapeIncidents, served: the answer
		hits   = chunks[0].wids      // ShapeInstances: the answer
	)
	for i, c := range chunks {
		total.instances += c.instances
		total.incidents += c.incidents
		if c.kept != nil {
			blocks = append(blocks, c.kept.blocks[:c.kept.n]...)
		}
		if c.wire != nil {
			lists = append(lists, c.wire)
		}
		if i > 0 {
			hits = append(hits, c.wids...)
		}
		total.excluded = append(total.excluded, c.excluded...)
		if errors.Is(c.err, errWallTime) {
			c.err = &resilience.BudgetError{Dimension: resilience.DimWallTime,
				Limit: uint64(e.opts.Budget.MaxWallTime), Measured: uint64(time.Since(started))}
		}
		if c.err != nil && (total.err == nil || errRank(c.err) > errRank(total.err)) {
			total.err = c.err
		}
	}
	if stats != nil {
		stats.Workers = workers
		stats.Instances = total.instances
		stats.Incidents = total.incidents
	}
	if total.err != nil {
		return Answer{}, total.err
	}
	a := Answer{Count: total.incidents, Excluded: total.excluded}
	switch {
	case shape == ShapeInstances:
		a.WIDs = hits
		if hits == nil {
			a.WIDs = []uint64{}
		}
	case shape == ShapeIncidents && served:
		a.Wire = lists
	case shape == ShapeIncidents:
		a.Incidents = blocks
	}
	return a, nil
}

// runs evaluates the items of cv in len(chunks) contiguous runs, one per
// goroutine, the first on the caller's, each into its chunk (scan).
func (e *Evaluator) runs(ctx context.Context, prog program, wids []uint64, cv cover, counted bool, shape Shape, served bool, first bool, chunks []chunk) {
	bs := newBudgetState(e.opts.Budget)
	// The stop flag: set by a run that fails or, with first, finds an
	// incident, and by the end of ctx.
	var stop atomic.Bool
	if ctx.Done() != nil {
		if ctx.Err() != nil {
			stop.Store(true)
		}
		defer context.AfterFunc(ctx, func() { stop.Store(true) })()
	}

	// run evaluates items lo..hi-1, and covers the instances from the first
	// one's (from the list's start for the first chunk) to the next chunk's.
	run := func(lo, hi int) (c chunk) {
		switch {
		case shape == ShapeInstances:
			c.wids = make([]uint64, 0, hi-lo)
		case shape != ShapeIncidents:
		case served:
			c.wire = incident.AppendWire((*wireBufs.Get().(*[]byte))[:0], nil)
		default:
			c.kept = new(resultArena)
		}
		sc := newScratch(ctx, prog)
		// Also when the chunk ends in a failure: an abort's partial cost table
		// includes every completed operator.
		defer sc.flush()
		hook := evalHook.Load()
		from := 0
		if lo > 0 {
			from = cv.bound(lo)
		}
		j := lo // the first item not done
		// items evaluates items from j on under one recover, until the run
		// ends or an item panics: then the item is excluded, and the run
		// resumes at the next. Every scratch buffer is refilled from its start
		// by the next instance, so what the excluded one left there is dead.
		items := func() {
			defer func() {
				switch r := recover().(type) {
				case nil:
				case budgetAbort:
					c.err = r.err
					stop.Store(true)
				default:
					i, _ := cv.item(j)
					c.excluded = append(c.excluded, Exclusion{WID: wids[i], Err: resilience.NewPanicError(r)})
					j++
				}
			}()
			for ; j < hi && !stop.Load(); j++ {
				i, pos := cv.item(j)
				wid := wids[i]
				if hook != nil {
					(*hook)(wid)
				}
				row := e.src.Row(pos)
				var (
					n    int
					incs []incident.Incident
				)
				if counted {
					n = e.countInstance(sc, &row, pos, bs)
				} else {
					incs = e.evalInstance(sc, &row, wid, pos, bs)
					n = len(incs)
				}
				if err := bs.addResult(incs); err != nil {
					c.err = err
					stop.Store(true)
					return
				}
				c.incidents += n
				switch {
				case shape == ShapeInstances:
					if n > 0 {
						c.wids = append(c.wids, wid)
					}
				case shape != ShapeIncidents:
				case c.kept != nil:
					c.kept.keep(incs)
				default:
					c.wire = incident.AppendWire(c.wire, incs)
				}
				if first && n > 0 {
					stop.Store(true)
				}
			}
		}
		for j < hi && c.err == nil && !stop.Load() {
			items()
		}
		if c.err == nil && len(wids) > 0 && ctx.Err() != nil {
			c.err = context.Cause(ctx)
		}
		// The instances covered are those below the first item not done.
		c.instances = cv.bound(j) - from - len(c.excluded)
		return c
	}

	// Contiguous runs, one per goroutine: per-instance work is often tiny,
	// so per-item handoff (a channel send per instance) would dominate.
	if len(chunks) == 1 {
		chunks[0] = run(0, cv.n)
		return
	}
	var wg sync.WaitGroup
	size := (cv.n + len(chunks) - 1) / len(chunks)
	for lo := 0; lo < cv.n; lo += size {
		wg.Add(1)
		go func() {
			defer wg.Done()
			chunks[lo/size] = run(lo, min(lo+size, cv.n))
		}()
	}
	wg.Wait()
}

// wireBufs holds the buffers of served answers that were written and not
// kept (Recycle), for the goroutines of later served scans to write their
// lists into.
var wireBufs = sync.Pool{New: func() any { return new([]byte) }}

// maxPooled is the largest buffer wireBufs keeps, so a rare huge answer is
// not held on to.
const maxPooled = 2 << 20

// Recycle hands the buffers of a served answer's lists (Answer.Wire) to
// later scans. Its caller has written them and holds no other reference to
// them.
func Recycle(wire [][]byte) {
	for _, b := range wire {
		if cap(b) > 0 && cap(b) <= maxPooled {
			wireBufs.Put(&b)
		}
	}
}

// resultArena is where one goroutine of a library incidents scan keeps its
// share of the answer: each instance's incidents, copied once out of the
// scratch (and off the source's postings) after the instance succeeded, so
// an answer never aliases either — a kept answer over a live log pins no old
// version of the store. The is-lsn values go into a slab that is never
// reset, the incidents into blocks of headerBlock, filled in wid order and
// never copied to grow.
type resultArena struct {
	seqs   incident.Slab
	blocks [][]incident.Incident // every block, in the order they fill
	n      int                   // blocks in use; the last of them is being filled
}

// headerBlock is how many incidents one block holds: 32 KiB, a small-object
// size class.
const headerBlock = 1024

// keep copies one instance's incidents into the arena.
func (r *resultArena) keep(incs []incident.Incident) {
	for _, o := range incs {
		if r.n == 0 || len(r.blocks[r.n-1]) == headerBlock {
			if r.n == len(r.blocks) {
				r.blocks = append(r.blocks, make([]incident.Incident, 0, headerBlock))
			}
			r.n++
		}
		r.blocks[r.n-1] = append(r.blocks[r.n-1], r.seqs.Copy(o))
	}
}

// errRank orders the failures one scan can collect, so which one the caller
// sees does not depend on goroutine scheduling: a budget trip is a verdict on
// the query, a cancellation only says the caller stopped waiting.
func errRank(err error) int {
	var be *resilience.BudgetError
	switch {
	case errors.As(err, &be):
		return 2
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return 1
	default:
		return 0
	}
}
