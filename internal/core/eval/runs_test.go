package eval_test

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"wlq/internal/clinic"
	"wlq/internal/colstore"
	"wlq/internal/core/eval"
	"wlq/internal/core/incident"
	"wlq/internal/core/pattern"
	"wlq/internal/resilience"
)

// without is the set less the incidents of the given instances.
func without(set *incident.Set, wids []uint64) *incident.Set {
	var kept []incident.Incident
	for _, o := range set.Incidents() {
		if !slices.Contains(wids, o.WID()) {
			kept = append(kept, o)
		}
	}
	return incident.NewSet(kept...)
}

// TestPanicMidRunExcludesOneInstance: a scan goroutine evaluates its run
// of instances under one recover, so a panic must exclude the instance in
// flight and nothing else: whether it is the first item of a goroutine's
// run, a middle one, the last one, or one of two adjacent ones, every
// shape, through AnswerCtx and ServeCtx, on one goroutine and on three,
// names exactly the poisoned wids, answers naive Algorithm 1 over the
// others, and counts the others as covered.
func TestPanicMidRunExcludesOneInstance(t *testing.T) {
	traces := make([][]string, 12)
	for i := range traces {
		for k := 0; k <= i%3; k++ {
			traces[i] = append(traces[i], "A", "B")
		}
	}
	l := traceLog(t, traces...)
	wids := l.WIDs()
	// Every instance is a candidate, so at three goroutines the runs are
	// items 0–3, 4–7 and 8–11.
	cases := map[string][]uint64{
		"the first item of a run": {wids[4]},
		"a middle item":           {wids[5]},
		"the last item":           {wids[11]},
		"two adjacent items":      {wids[6], wids[7]},
		"all of them":             {wids[4], wids[5], wids[6], wids[7], wids[11]},
	}
	defer eval.SetEvalHook(nil)
	ctx := context.Background()
	for _, q := range []string{"A -> B", "(A -> B) | (B . A)"} {
		p := pattern.MustParse(q)
		eval.SetEvalHook(nil)
		want := eval.New(eval.NewIndex(l), eval.Options{Strategy: eval.StrategyNaive}).Eval(p)
		for name, poisoned := range cases {
			rest := without(want, poisoned)
			eval.SetEvalHook(func(wid uint64) {
				if slices.Contains(poisoned, wid) {
					panic(fmt.Sprintf("injected fault before wid %d", wid))
				}
			})
			for srcName, src := range backends(l) {
				e := eval.New(src, eval.Options{})
				for _, workers := range []int{1, 3} {
					for _, shape := range []eval.Shape{eval.ShapeIncidents, eval.ShapeInstances, eval.ShapeCount} {
						for _, served := range []bool{false, true} {
							var (
								qs  eval.QueryStats
								a   eval.Answer
								err error
							)
							if served {
								a, err = e.ServeCtx(ctx, p, src.WIDs(), workers, shape, &qs)
							} else {
								a, err = e.AnswerCtx(ctx, p, src.WIDs(), workers, shape, &qs)
							}
							var excluded []uint64
							for _, x := range a.Excluded {
								excluded = append(excluded, x.WID)
							}
							ok := err == nil && slices.Equal(excluded, poisoned) && a.Count == rest.Len() &&
								qs.Instances == len(wids)-len(poisoned)
							switch {
							case shape == eval.ShapeInstances:
								ok = ok && slices.Equal(a.WIDs, rest.WIDs())
							case shape == eval.ShapeIncidents && served:
								ok = ok && wireOf(a.Wire) == wireJSON(t, rest.Incidents())
							case shape == eval.ShapeIncidents:
								ok = ok && sameIncidents(a, rest)
							}
							if !ok {
								t.Errorf("%s over %s, %s poisoned (%v), %d workers, %v, served %v: excluded %v, %d covered, answer %+v, %v; naive Algorithm 1 over the rest: %s",
									q, srcName, name, poisoned, workers, shape, served, excluded, qs.Instances, a, err, rest)
							}
						}
					}
				}
			}
		}
	}
}

// statisticsLog is a clinic log whose records carry attributes, for a
// guarded atom that still scans.
func statisticsLog(t *testing.T) *colstore.Store {
	t.Helper()
	l, err := clinic.Generate(60, 1)
	if err != nil {
		t.Fatal(err)
	}
	return colstore.Build(l)
}

// statisticsQueries are lone atoms: the four the statistics answer, and a
// guarded one, which must scan.
var statisticsQueries = []string{"SeeDoctor", "!SeeDoctor", "NoSuchActivity", "!NoSuchActivity", "SeeDoctor[year>=2017]"}

// TestSingleAtomAnswersFromStatistics: count, instances and exists of a
// lone atom answer the same over the whole wid list — where an unguarded
// one is answered from the store's statistics — as over a run of it and a
// touched-wid list, where it scans: naive Algorithm 1 restricted to the
// list, with the meter the merge strategy's enumeration of the same plan
// over the same list fills in. (The naive strategy evaluates every
// instance, not the candidates, so its meter differs by design.)
func TestSingleAtomAnswersFromStatistics(t *testing.T) {
	cs := statisticsLog(t)
	all := cs.WIDs()
	var touched []uint64
	for i := 0; i < len(all); i += 3 {
		touched = append(touched, all[i])
	}
	lists := map[string][]uint64{"the whole list": all, "a run": all[10:40], "touched wids": touched}
	ctx := context.Background()
	for _, q := range statisticsQueries {
		p := pattern.MustParse(q)
		oracle := eval.New(cs, eval.Options{Strategy: eval.StrategyNaive}).Eval(p)
		for name, list := range lists {
			var out []uint64
			for _, wid := range all {
				if !slices.Contains(list, wid) {
					out = append(out, wid)
				}
			}
			want := without(oracle, out)
			m := eval.NewMeter(p)
			if _, err := eval.New(cs, eval.Options{Meter: m}).AnswerCtx(ctx, p, list, 1, eval.ShapeIncidents, nil); err != nil {
				t.Fatal(err)
			}
			wantOps := m.Snapshot()
			for _, shape := range []eval.Shape{eval.ShapeCount, eval.ShapeInstances} {
				for _, workers := range []int{1, 3} {
					m := eval.NewMeter(p)
					var qs eval.QueryStats
					a, err := eval.New(cs, eval.Options{Meter: m}).ServeCtx(ctx, p, list, workers, shape, &qs)
					if err != nil || a.Count != want.Len() || qs.Instances != len(list) || qs.Incidents != want.Len() ||
						shape == eval.ShapeInstances && !slices.Equal(a.WIDs, want.WIDs()) {
						t.Errorf("%s over %s, %v, %d workers: %+v, %v, stats %+v; naive Algorithm 1: %d incidents over %v", q, name, shape, workers, a, err, qs, want.Len(), want.WIDs())
					}
					if got := m.Snapshot(); !slices.Equal(got, wantOps) {
						t.Errorf("%s over %s, %v, %d workers: metered %+v, the enumeration %+v", q, name, shape, workers, got, wantOps)
					}
				}
			}
			// exists: the server's is a count, the library's stops at the
			// first hit.
			if ok, err := eval.New(cs, eval.Options{}).ExistsCtx(ctx, p); name == "the whole list" && (err != nil || ok != (oracle.Len() > 0)) {
				t.Errorf("%s: ExistsCtx = %v, %v; naive Algorithm 1 has %d", q, ok, err, oracle.Len())
			}
		}
	}
}

// TestStatisticsAnswerCallsNoFaultHook: an answer from the statistics
// evaluates no instance, so the fault hook fires for none; a guarded atom
// still scans its candidates, and a sub-list is still scanned.
func TestStatisticsAnswerCallsNoFaultHook(t *testing.T) {
	cs := statisticsLog(t)
	var calls atomic.Int64
	eval.SetEvalHook(func(uint64) { calls.Add(1) })
	defer eval.SetEvalHook(nil)
	for _, q := range statisticsQueries {
		p := pattern.MustParse(q)
		guarded := len(p.(*pattern.Atom).Guards) > 0
		for _, shape := range []eval.Shape{eval.ShapeCount, eval.ShapeInstances} {
			calls.Store(0)
			a, err := eval.New(cs, eval.Options{}).ServeCtx(context.Background(), p, cs.WIDs(), 2, shape, nil)
			if err != nil || len(a.Excluded) > 0 || guarded != (calls.Load() > 0) {
				t.Errorf("%s, %v: %d hook calls, %+v, %v; want calls only for the guarded atom", q, shape, calls.Load(), a, err)
			}
			calls.Store(0)
			e := eval.New(cs, eval.Options{})
			if _, err := e.CountCtx(context.Background(), p); err != nil || guarded != (calls.Load() > 0) {
				t.Errorf("%s: CountCtx made %d hook calls, %v", q, calls.Load(), err)
			}
			calls.Store(0)
			if _, err := e.ServeCtx(context.Background(), p, cs.WIDs()[1:], 1, shape, nil); err != nil || q != "NoSuchActivity" && calls.Load() == 0 {
				t.Errorf("%s over a sub-list, %v: %d hook calls, %v; want a scan", q, shape, calls.Load(), err)
			}
		}
	}
}

// TestStatisticsAnswerFailsOnAnExpiredDeadline: a statistics answer reads
// the scan's one clock too. A caller's expired deadline fails it with the
// context's error, and an expired wall-time budget with the wall-time
// *BudgetError, in both shapes.
func TestStatisticsAnswerFailsOnAnExpiredDeadline(t *testing.T) {
	cs := statisticsLog(t)
	expired, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	for _, q := range statisticsQueries[:4] {
		p := pattern.MustParse(q)
		for _, shape := range []eval.Shape{eval.ShapeCount, eval.ShapeInstances} {
			a, err := eval.New(cs, eval.Options{}).ServeCtx(expired, p, cs.WIDs(), 1, shape, nil)
			if !errors.Is(err, context.DeadlineExceeded) || a.Count != 0 || a.WIDs != nil {
				t.Errorf("%s, %v, expired deadline: %+v, %v; want context.DeadlineExceeded and no answer", q, shape, a, err)
			}
			e := eval.New(cs, eval.Options{Budget: resilience.Budget{MaxWallTime: time.Nanosecond}})
			var be *resilience.BudgetError
			if a, err := e.ServeCtx(context.Background(), p, cs.WIDs(), 1, shape, nil); !errors.As(err, &be) || be.Dimension != resilience.DimWallTime {
				t.Errorf("%s, %v, 1ns wall time: %+v, %v; want the wall-time budget error", q, shape, a, err)
			}
		}
	}
}
