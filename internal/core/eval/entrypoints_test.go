package eval_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"wlq/internal/clinic"
	"wlq/internal/colstore"
	"wlq/internal/core/eval"
	"wlq/internal/core/incident"
	"wlq/internal/core/pattern"
	"wlq/internal/core/rewrite"
	"wlq/internal/gen"
	"wlq/internal/predicate"
	"wlq/internal/resilience"
	"wlq/internal/wlog"
)

// assertEntryPointsAgree holds every way of asking the evaluator — each
// under both join strategies, with and without a meter, over the row index
// and the columnar store — to one answer: naive Algorithm 1 over the row
// index, every incident of which must also pass the independent
// Definition 4 check. ServeCtx's bytes must be what encoding/json writes for
// that answer, on 1, 2, 3 and 7 goroutines. Then it poisons those of the
// given instances that a scan evaluates under both strategies — the merge
// strategy skips the ones the plan's required-atom formula rules out
// (assertExclusions).
func assertEntryPointsAgree(t *testing.T, l *wlog.Log, p pattern.Node, poisoned []uint64) {
	t.Helper()
	ctx := context.Background()
	ix := eval.NewIndex(l)
	oracle := eval.New(ix, eval.Options{Strategy: eval.StrategyNaive})
	want := oracle.Eval(p)
	for _, o := range want.Incidents() {
		if !oracle.Verify(p, o) {
			t.Fatalf("%s: %v is not an incident by Definition 4", p, o)
		}
	}
	wantWire := wireJSON(t, want.Incidents())
	read := evaluated(t, l, p)
	if !isSubset(want.WIDs(), read) {
		t.Fatalf("%s: the merge strategy evaluates %v, skipping an instance of %v", p, read, want.WIDs())
	}
	var injected []uint64
	for _, wid := range poisoned {
		if _, ok := slices.BinarySearch(read, wid); ok {
			injected = append(injected, wid)
		}
	}
	poisoned = injected
	for name, src := range map[string]eval.Source{"index": ix, "colstore": colstore.Build(l)} {
		for _, strat := range []eval.Strategy{eval.StrategyNaive, eval.StrategyMerge} {
			for _, metered := range []bool{false, true} {
				opts := eval.Options{Strategy: strat}
				if metered {
					opts.Meter = eval.NewMeter(p)
				}
				e := eval.New(src, opts)
				same := func(entry string, got *incident.Set, err error) {
					t.Helper()
					if err != nil || !got.Equal(want) {
						t.Fatalf("%s/%v/meter=%v: %s(%s) = %s, %v\noracle: %s", name, strat, metered, entry, p, got, err, want)
					}
				}
				same("Eval", e.Eval(p), nil)
				wids := src.WIDs()
				for _, workers := range []int{1, 2, 8} {
					var qs eval.QueryStats
					got, err := e.EvalParallelCtx(ctx, p, workers, &qs)
					same("EvalParallelCtx", got, err)
					if qs.Instances != len(wids) || qs.Incidents != want.Len() {
						t.Fatalf("%s/%v: %d workers: stats %+v, want %d instances, %d incidents", name, strat, workers, qs, len(wids), want.Len())
					}
				}
				for _, workers := range []int{1, 2, 3, 7} {
					var qs eval.QueryStats
					a, err := e.ServeCtx(ctx, p, wids, workers, eval.ShapeIncidents, &qs)
					if err = a.Strict(err); err != nil || wireOf(a.Wire) != wantWire || a.Incidents != nil ||
						a.Count != want.Len() || qs.Instances != len(wids) || len(a.Wire) > workers {
						t.Fatalf("%s/%v/meter=%v: %d workers: ServeCtx(%s) = %s, %+v, %v; oracle: %s", name, strat, metered, workers, p, a.Wire, qs, err, want)
					}
					for _, l := range a.Wire {
						if _, err := incident.DecodeIncidents(l); err != nil {
							t.Fatalf("%s/%v: %d workers: ServeCtx(%s) wrote the list %s: %v", name, strat, workers, p, l, err)
						}
					}
					if a, err := e.ServeCtx(ctx, p, wids, workers, eval.ShapeInstances, nil); err != nil || a.Wire != nil || !slices.Equal(a.WIDs, want.WIDs()) {
						t.Fatalf("%s/%v: %d workers: instances shape of ServeCtx(%s) = %+v, %v", name, strat, workers, p, a, err)
					}
				}
				var thirds, single [][]incident.Incident
				for lo := 0; lo < len(wids); lo += len(wids)/3 + 1 {
					part, err := e.AnswerCtx(ctx, p, wids[lo:min(lo+len(wids)/3+1, len(wids))], 1, eval.ShapeIncidents, nil)
					if err = part.Strict(err); err != nil {
						t.Fatalf("%s/%v: AnswerCtx(%s): %v", name, strat, p, err)
					}
					thirds = append(thirds, part.Incidents...)
				}
				same("AnswerCtx over a 3-way split", incident.MergeSorted(thirds...), nil)
				for _, wid := range wids {
					one, err := e.AnswerCtx(ctx, p, []uint64{wid}, 1, eval.ShapeIncidents, nil)
					if err = one.Strict(err); err != nil {
						t.Fatalf("%s/%v: AnswerCtx(%s) on wid %d: %v", name, strat, p, wid, err)
					}
					single = append(single, one.Incidents...)
				}
				same("AnswerCtx per wid", incident.MergeSorted(single...), nil)
				assertWIDListsAgree(t, e, p, wids, want)

				n, err := e.CountCtx(ctx, p)
				if err != nil || n != want.Len() || e.Count(p) != n {
					t.Fatalf("%s/%v: CountCtx(%s) = %d, %v; Count = %d; oracle has %d", name, strat, p, n, err, e.Count(p), want.Len())
				}
				// The cheaper shapes, counted where the plan allows and folded
				// over the enumeration where not, summarise the same set.
				for _, workers := range []int{1, 3} {
					var qs eval.QueryStats
					a, err := e.AnswerCtx(ctx, p, wids, workers, eval.ShapeCount, &qs)
					if err != nil || a.Count != want.Len() || a.WIDs != nil || a.Incidents != nil || qs.Instances != len(wids) || qs.Incidents != want.Len() {
						t.Fatalf("%s/%v/meter=%v: %d workers: count shape of %s = %+v, %v, stats %+v; oracle has %d", name, strat, metered, workers, p, a, err, qs, want.Len())
					}
					a, err = e.AnswerCtx(ctx, p, wids, workers, eval.ShapeInstances, nil)
					if err != nil || a.Count != want.Len() || !slices.Equal(a.WIDs, want.WIDs()) || a.Incidents != nil {
						t.Fatalf("%s/%v/meter=%v: %d workers: instances shape of %s = %+v, %v; oracle has %d over %v", name, strat, metered, workers, p, a, err, want.Len(), want.WIDs())
					}
				}
				ex, err := e.ExistsCtx(ctx, p)
				if err != nil || ex != (want.Len() > 0) || e.Exists(p) != ex {
					t.Fatalf("%s/%v: ExistsCtx(%s) = %v, %v; oracle has %d", name, strat, p, ex, err, want.Len())
				}
			}
		}
	}
	assertExclusions(t, l, p, want, poisoned)
}

// assertWIDListsAgree: over each kind of wid list a scan is handed — a run
// of the source's own list wids (a worker's owned interval), a copy of it,
// and any other ascending list (the monitor's touched instances), absent
// wids included — every shape answers the oracle restricted to the list,
// and the statistics count every instance of the list as covered.
func assertWIDListsAgree(t *testing.T, e *eval.Evaluator, p pattern.Node, wids []uint64, want *incident.Set) {
	t.Helper()
	var everyOther []uint64
	for i := 0; i < len(wids); i += 2 {
		everyOther = append(everyOther, wids[i])
	}
	lists := map[string][]uint64{
		"a run":              wids[len(wids)/3 : len(wids)-len(wids)/3],
		"a copy":             slices.Clone(wids),
		"every other wid":    everyOther,
		"absent wids around": append(append([]uint64{0}, everyOther...), 1<<40),
	}
	for name, list := range lists {
		var kept []incident.Incident
		for _, o := range want.Incidents() {
			if _, ok := slices.BinarySearch(list, o.WID()); ok {
				kept = append(kept, o)
			}
		}
		rest := incident.NewSet(kept...)
		for _, shape := range []eval.Shape{eval.ShapeIncidents, eval.ShapeInstances, eval.ShapeCount} {
			for _, workers := range []int{1, 2} {
				var qs eval.QueryStats
				a, err := e.AnswerCtx(context.Background(), p, list, workers, shape, &qs)
				if err = a.Strict(err); err != nil || a.Count != rest.Len() || qs.Instances != len(list) ||
					shape == eval.ShapeIncidents && !sameIncidents(a, rest) ||
					shape == eval.ShapeInstances && !slices.Equal(a.WIDs, rest.WIDs()) {
					t.Fatalf("%s over %s %v, %v, %d workers: %+v, %v, stats %+v; the oracle restricted to it: %s", p, name, list, shape, workers, a, err, qs, rest)
				}
			}
		}
	}
}

// evaluated is the instances a StrategyMerge scan of the whole log
// evaluates, by the fault hook, which must be the same over both backends:
// those the plan's required-atom formula admits. It asks for the incidents,
// which no statistic holds.
func evaluated(t *testing.T, l *wlog.Log, p pattern.Node) []uint64 {
	t.Helper()
	defer eval.SetEvalHook(nil)
	var read []uint64
	for name, src := range backends(l) {
		var got []uint64
		eval.SetEvalHook(func(wid uint64) { got = append(got, wid) })
		if _, err := eval.New(src, eval.Options{}).AnswerCtx(context.Background(), p, src.WIDs(), 1, eval.ShapeIncidents, nil); err != nil {
			t.Fatal(err)
		}
		if read != nil && !slices.Equal(got, read) {
			t.Fatalf("%s evaluates %v over %s, %v over the other backend", p, got, name, read)
		}
		read = got
		if want := eval.Candidates(src, p, eval.StrategyMerge); len(got) != want {
			t.Fatalf("%s: %d instances evaluated over %s, Candidates says %d", p, len(got), name, want)
		}
		if n := eval.Candidates(src, p, eval.StrategyNaive); n != len(src.WIDs()) {
			t.Fatalf("%s: Candidates under the naive strategy is %d of %d instances", p, n, len(src.WIDs()))
		}
	}
	return read
}

// isSubset reports whether every element of the ascending list a is in the
// ascending list b.
func isSubset(a, b []uint64) bool {
	for _, x := range a {
		if _, ok := slices.BinarySearch(b, x); !ok {
			return false
		}
	}
	return true
}

// poisonedSource makes the evaluation of chosen instances panic halfway:
// their posting row is handed out with the group of one symbol out of
// bounds, the last of the plan's symbols to be read that the instance
// carries, so the panic comes as an atom reads it, after the steps before it
// have written their scratch. The eval fault hook, called once before each
// instance, panics itself for the instances poisoned that way.
type poisonedSource struct {
	eval.Source
	panicSym map[uint64]int32 // the mid-instance poisoned wids' symbol
	hook     map[uint64]bool  // the wids the hook itself poisons
}

func (s *poisonedSource) Row(pos int) eval.Row {
	row := s.Source.Row(pos)
	if sym, ok := s.panicSym[s.WIDs()[pos]]; ok {
		i := int(sym)
		if row.Syms != nil {
			i, _ = slices.BinarySearch(row.Syms, sym)
		}
		row.Off = slices.Clone(row.Off)
		row.Off[i+1] = int32(cap(row.Post)) + 1
	}
	return row
}

// evalHook is the fault hook the source needs installed.
func (s *poisonedSource) evalHook(wid uint64) {
	if s.hook[wid] {
		panic(fmt.Sprintf("injected fault before wid %d", wid))
	}
}

// poison wraps src so that the given instances panic: every other one
// halfway through its evaluation, at the plan's last symbol (by first
// occurrence) it carries, and the rest, and any that carries none, in the
// hook.
func poison(t *testing.T, src eval.Source, p pattern.Node, poisoned []uint64) *poisonedSource {
	t.Helper()
	ps := &poisonedSource{Source: src, panicSym: make(map[uint64]int32), hook: make(map[uint64]bool)}
	var syms []int32 // the plan's symbols, by first occurrence
	for _, a := range pattern.Atoms(p) {
		if sym, ok := src.ResolveActivity(a.Activity); ok && !slices.Contains(syms, sym) {
			syms = append(syms, sym)
		}
	}
	for i, wid := range poisoned {
		pos, _ := src.Position(wid)
		row := src.Row(pos)
		last := -1
		for k, sym := range syms {
			if len(row.Postings(sym)) > 0 {
				last = k
			}
		}
		if i%2 == 0 && last >= 0 {
			ps.panicSym[wid] = syms[last]
		} else {
			ps.hook[wid] = true
		}
	}
	return ps
}

// fromStatistics reports whether the evaluator answers p counted over a
// source's whole wid list from the source's statistics, reading no
// instance: a lone unguarded atom under the merge strategy.
func fromStatistics(p pattern.Node, strategy eval.Strategy, shape eval.Shape) bool {
	a, ok := p.(*pattern.Atom)
	return ok && len(a.Guards) == 0 && strategy == eval.StrategyMerge && shape != eval.ShapeIncidents
}

// assertExclusions: with the given instances poisoned, every shape of
// AnswerCtx — both strategies, both backends, one goroutine or three —
// excludes exactly them and answers naive Algorithm 1 restricted to the
// others, so no excluded instance's half-written scratch leaks into the next
// instance's answer; ServeCtx's list holds no byte of theirs and reads back,
// with the coordinator's reader, as the others' incidents; every
// all-or-nothing entry point fails with the panic; and a cancelled context
// still fails the evaluation instead of excluding. An answer from the
// statistics reads no instance, so it excludes none and answers in full.
func assertExclusions(t *testing.T, l *wlog.Log, p pattern.Node, want *incident.Set, poisoned []uint64) {
	t.Helper()
	ctx := context.Background()
	isPoisoned := make(map[uint64]bool)
	for _, wid := range poisoned {
		isPoisoned[wid] = true
	}
	var kept []incident.Incident
	for _, o := range want.Incidents() {
		if !isPoisoned[o.WID()] {
			kept = append(kept, o)
		}
	}
	rest := incident.NewSet(kept...)
	restWire := wireJSON(t, rest.Incidents())
	// ExistsCtx stops at the first instance with an incident: it fails only
	// when a poisoned instance comes first.
	existsFails := len(poisoned) > 0 && (want.Len() == 0 || poisoned[0] <= want.Incidents()[0].WID())
	defer eval.SetEvalHook(nil)
	for name, base := range backends(l) {
		for _, strat := range []eval.Strategy{eval.StrategyNaive, eval.StrategyMerge} {
			src := poison(t, base, p, poisoned)
			eval.SetEvalHook(src.evalHook)
			e := eval.New(src, eval.Options{Strategy: strat})
			fail := func(format string, args ...any) {
				t.Helper()
				t.Fatalf("%s/%v, %s poisoned in %v: %s", name, strat, p, poisoned, fmt.Sprintf(format, args...))
			}
			for _, workers := range []int{1, 3} {
				for _, shape := range []eval.Shape{eval.ShapeIncidents, eval.ShapeInstances, eval.ShapeCount} {
					a, err := e.AnswerCtx(ctx, p, src.WIDs(), workers, shape, nil)
					var excluded []uint64
					for _, x := range a.Excluded {
						if x.Err == nil || x.Err.IncidentID == "" {
							fail("%d workers, %v: exclusion %+v without its panic", workers, shape, x)
						}
						excluded = append(excluded, x.WID)
					}
					wantExcluded, wantRest := poisoned, rest
					if fromStatistics(p, strat, shape) {
						wantExcluded, wantRest = nil, want
					}
					if err != nil || !slices.Equal(excluded, wantExcluded) {
						fail("%d workers, %v: excluded %v, err %v", workers, shape, excluded, err)
					}
					if a.Count != wantRest.Len() ||
						shape == eval.ShapeIncidents && !sameIncidents(a, wantRest) ||
						shape == eval.ShapeInstances && !slices.Equal(a.WIDs, wantRest.WIDs()) {
						fail("%d workers, %v: answer %+v; naive Algorithm 1 over the rest: %s", workers, shape, a, wantRest)
					}
				}
				a, err := e.ServeCtx(ctx, p, src.WIDs(), workers, eval.ShapeIncidents, nil)
				back, readErr := incident.DecodeIncidents([]byte(wireOf(a.Wire)))
				if err != nil || len(a.Excluded) != len(poisoned) || wireOf(a.Wire) != restWire ||
					readErr != nil || !slices.EqualFunc(back, rest.Incidents(), incident.Incident.Equal) {
					fail("%d workers: ServeCtx = %s, excluded %d, %v; read back %v, %v; naive Algorithm 1 over the rest: %s",
						workers, a.Wire, len(a.Excluded), err, back, readErr, rest)
				}
				if len(poisoned) == 0 {
					continue
				}
				var pe *resilience.PanicError
				if set, err := e.EvalParallelCtx(ctx, p, workers, nil); !errors.As(err, &pe) || set != nil {
					fail("%d workers: EvalParallelCtx = %v, %v; want the panic", workers, set, err)
				}
			}
			if len(poisoned) > 0 {
				var pe *resilience.PanicError
				counted := fromStatistics(p, strat, eval.ShapeCount)
				if n, err := e.CountCtx(ctx, p); counted && (err != nil || n != want.Len()) || !counted && !errors.As(err, &pe) {
					fail("CountCtx = %d, %v; want the panic, or from the statistics %d", n, err, want.Len())
				}
				if ok, err := e.ExistsCtx(ctx, p); errors.As(err, &pe) != existsFails || err == nil && !ok {
					fail("ExistsCtx = %v, %v; want the panic: %v", ok, err, existsFails)
				}
				calls := map[string]func(){"Eval": func() { e.Eval(p) }, "Count": func() { e.Count(p) }}
				if counted {
					delete(calls, "Count")
				}
				for entry, call := range calls {
					func() {
						defer func() {
							if r, _ := recover().(*resilience.PanicError); r == nil {
								fail("%s did not panic with the *resilience.PanicError", entry)
							}
						}()
						call()
					}()
				}
			}
			cancelled, cancel := context.WithCancel(ctx)
			cancel()
			if a, err := e.AnswerCtx(cancelled, p, src.WIDs(), 3, eval.ShapeIncidents, nil); !errors.Is(err, context.Canceled) || a.Excluded != nil {
				fail("cancelled: %+v, %v; want context.Canceled and no exclusion", a, err)
			}
			eval.SetEvalHook(nil)
		}
	}
}

// wireOf is a served answer's lists as one list (incident.AppendArray).
func wireOf(lists [][]byte) string {
	return string(bytes.Join(incident.AppendArray(nil, lists), nil))
}

// wireJSON is the wire form of an incident list as encoding/json writes it,
// which shares no code with incident.AppendWire.
func wireJSON(t *testing.T, incs []incident.Incident) string {
	t.Helper()
	type doc struct {
		WID  uint64   `json:"wid"`
		Seqs []uint64 `json:"seqs"`
	}
	docs := make([]doc, len(incs))
	for i, o := range incs {
		docs[i] = doc{o.WID(), o.Seqs()}
	}
	b, err := json.Marshal(docs)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// everyThird is a poisoned subset for the fixed tests: the instances at
// positions 1, 4, 7, … of the log — or its only one.
func everyThird(l *wlog.Log) []uint64 {
	wids := l.WIDs()
	if len(wids) == 1 {
		return wids
	}
	var out []uint64
	for i := 1; i < len(wids); i += 3 {
		out = append(out, wids[i])
	}
	return out
}

// TestExclusionsNeverMaskATrip: a comparison-budget trip on the Theorem 1
// adversary fails the evaluation in every shape, however many goroutines
// scan and although another instance panicked first — a trip is never a
// shorter answer.
func TestExclusionsNeverMaskATrip(t *testing.T) {
	tt := make([]string, 24)
	for i := range tt {
		tt[i] = gen.WorstCaseActivity
	}
	l := traceLog(t, tt, tt, tt, tt)
	first := l.WIDs()[0]
	eval.SetEvalHook(func(wid uint64) {
		if wid == first {
			panic("injected fault")
		}
	})
	defer eval.SetEvalHook(nil)
	for name, src := range backends(l) {
		for _, strat := range []eval.Strategy{eval.StrategyNaive, eval.StrategyMerge} {
			e := eval.New(src, eval.Options{Strategy: strat, Budget: resilience.Budget{MaxComparisons: 64}})
			for _, workers := range []int{1, 3} {
				for _, shape := range []eval.Shape{eval.ShapeIncidents, eval.ShapeInstances, eval.ShapeCount} {
					a, err := e.AnswerCtx(context.Background(), gen.WorstCasePattern(3), src.WIDs(), workers, shape, nil)
					var be *resilience.BudgetError
					if !errors.As(err, &be) || be.Dimension != resilience.DimComparisons || a.Excluded != nil {
						t.Errorf("%s/%v, %d workers, %v: %+v, %v; want the comparisons trip and no answer", name, strat, workers, shape, a, err)
					}
				}
			}
		}
	}
}

// clinicGuards are conditions some records of a generated clinic log meet
// and some do not.
var clinicGuards = []string{"balance>2000", "year>=2017", "in.referState=active", "receipt1?", `hospital!="Public Hospital"`}

// FuzzEntryPointsAgree: a seed picks a random log and a random pattern (all
// four operators, negated atoms, an absent activity, the boundary records);
// odd seeds use a generated clinic log instead, whose records carry
// attributes, and guard some atoms.
func FuzzEntryPointsAgree(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		alphabet := gen.Alphabet(2 + rng.Intn(6))
		l, err := gen.RandomLog(gen.LogParams{
			Instances:        1 + rng.Intn(12),
			MeanLength:       1 + rng.Intn(10),
			Alphabet:         alphabet,
			Skew:             rng.Float64() * 1.5,
			CompleteFraction: 0.1 + 0.9*rng.Float64(),
			Seed:             seed,
		})
		if seed%2 != 0 {
			alphabet = []string{clinic.ActGetRefer, clinic.ActCheckIn, clinic.ActSeeDoctor, clinic.ActPayTreatment, clinic.ActGetReimburse}
			l, err = clinic.Generate(1+rng.Intn(12), seed)
		}
		if err != nil {
			t.Fatal(err)
		}
		p := gen.RandomPattern(rng, gen.PatternParams{
			Operators:  rng.Intn(5),
			Alphabet:   append(alphabet, "NoSuchActivity", "START", "END"),
			NegateProb: 0.25,
		})
		if seed%2 != 0 {
			for _, a := range pattern.Atoms(p) {
				if rng.Intn(3) == 0 {
					g, err := predicate.Parse(clinicGuards[rng.Intn(len(clinicGuards))])
					if err != nil {
						t.Fatal(err)
					}
					a.Guards = append(a.Guards, g)
				}
			}
		}
		// A random subset of the instances is poisoned.
		var poisoned []uint64
		for _, wid := range l.WIDs() {
			if rng.Intn(3) == 0 {
				poisoned = append(poisoned, wid)
			}
		}
		assertEntryPointsAgree(t, l, p, poisoned)
	})
}

// TestEntryPointsAgreeOnRepeatedSubPatterns: plans in which the merge
// strategy answers a second occurrence from the first.
func TestEntryPointsAgreeOnRepeatedSubPatterns(t *testing.T) {
	l, err := clinic.Generate(20, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{
		"(GetRefer -> SeeDoctor) | (GetRefer -> PayTreatment)",
		"(SeeDoctor . PayTreatment) & (SeeDoctor . PayTreatment)",
		"SeeDoctor | SeeDoctor",
		"(GetRefer[balance>2000] -> !SeeDoctor) | (GetRefer[balance>2000] -> CheckIn)",
	} {
		assertEntryPointsAgree(t, l, pattern.MustParse(q), everyThird(l))
		assertEntryPointsAgree(t, clinic.Fig3(), pattern.MustParse(q), everyThird(clinic.Fig3()))
	}
}

// TestEntryPointsAgreeOnCountedShapes: the plans the counter has a case
// for — each end of a summarised step kept or dropped, a repeated
// sub-pattern read from both sides, record-sharing ⊕ operands, negated,
// guarded, absent and boundary atoms — and the ones it must leave to the
// enumeration, on logs where operands overlap as much as they can.
func TestEntryPointsAgreeOnCountedShapes(t *testing.T) {
	abc := eval.NewIndex(traceLog(t, []string{"A", "B", "C"}))
	if p := pattern.MustParse(mixedSizes); eval.Counted(p, eval.ShapeCount, eval.StrategyMerge) {
		t.Errorf("%s is counted", p)
	} else if pairs, incidents := 3, eval.New(abc, eval.Options{}).Count(p); incidents != 2 {
		// {1,2,3} arises as A+(B->C) and as (A->B)+C.
		t.Errorf("%s on A B C: %d incidents, want 2 (from %d qualifying pairs)", p, incidents, pairs)
	}
	for name, l := range countedShapeLogs(t) {
		for _, q := range countedShapeQueries {
			t.Run(name+"/"+q, func(t *testing.T) { assertEntryPointsAgree(t, l, pattern.MustParse(q), everyThird(l)) })
		}
	}
}

func countedShapeLogs(t *testing.T) map[string]*wlog.Log {
	return map[string]*wlog.Log{
		"abc":     traceLog(t, []string{"A", "B", "C"}),
		"mixed":   traceLog(t, []string{"A", "B", "A", "C", "B", "A", "C", "C"}, []string{"B", "A"}, []string{"C"}, []string{"A", "A", "B", "B"}),
		"one act": gen.WorstCaseLog(7),
		"fig3":    clinic.Fig3(),
	}
}

var countedShapeQueries = []string{
	mixedSizes,
	"A & A", "A & (A | B)", "(A | B) & (B | C)", "!A -> !A", "!A . !A", "NoSuchActivity . A", "START -> END",
	"A -> B -> C", "A -> (B -> C)", "(A . B) . C", "A . (B . C)", "(A -> B) . (B -> C)",
	// A summarised step read from both ends, and one repeated in both roles.
	"A -> ((A -> B) -> C)", "(A -> (B -> C)) -> C", "A . ((B -> A) . C)", "(A -> B) -> (A -> B)",
	"((A -> B) -> C) -> (A -> (A -> B))", "(A -> B) . (A -> B)", "(A | B) -> (A | B) -> (A | B)",
	// ⊕ under an order operator: incidents {x, y} by min and max.
	"(A & B) -> C", "C . (A & B)", "(A & A) -> (A & A)", "A -> ((A & (A | B)) -> C)", "(!A & !B) . !C",
	// Uncountable: ⊗ and ⊕ over multi-record operands, and anything above.
	"(A -> B) | (B -> C)", "(A -> B) & C", "((A -> B) | (A . B)) -> C", "A -> ((A -> B) & (B -> C))",
	"t -> t", "t & t", "(t -> t) -> (t -> t)", "t . (t -> t) . t", "(t & t) -> t",
	"GetRefer[balance>2000] -> (CheckIn -> SeeDoctor[year>=2017])", "!SeeDoctor[receipt1?] -> END",
}

// TestEntryPointsAgreeOnSkippedInstances: plans whose required-atom
// formula rules instances out — an absent activity, a rare one under ⊕ and
// under ⊗, a negated-only plan that rules none out — on a log where R
// occurs in two of six instances. assertEntryPointsAgree asks every shape,
// exists included, over the whole list, runs of it and other lists.
func TestEntryPointsAgreeOnSkippedInstances(t *testing.T) {
	l := traceLog(t,
		[]string{"A", "B", "C"}, []string{"A", "R", "B"}, []string{"C", "C"},
		[]string{"B", "A"}, []string{"R", "A", "R", "C"}, []string{"A", "B", "A", "B"})
	for q, candidates := range map[string]int{
		"NoSuchActivity": 0, "NoSuchActivity -> A": 0, "A & (NoSuchActivity | R)": 2,
		"R & A": 2, "(R & A) -> C": 1, "R & !A": 2, "R | C": 4, "(R | C) . B": 2, "(R -> B) | (C . C)": 4,
		"!A -> !B": 6, "!R": 6, "!NoSuchActivity": 6, "R -> !R": 2,
	} {
		p := pattern.MustParse(q)
		for name, src := range backends(l) {
			if n := eval.Candidates(src, p, eval.StrategyMerge); n != candidates {
				t.Errorf("%s over %s: %d candidate instances, want %d", q, name, n, candidates)
			}
		}
		assertEntryPointsAgree(t, l, p, everyThird(l))
	}
}

// TestCountedMeterMatchesEnumerated: a counted run meters every step with the
// operand sizes, outputs and Lemma 1 bound the enumeration records — so cost
// tables and operator counters mean the same in every mode — and with the
// comparisons its own joins made.
func TestCountedMeterMatchesEnumerated(t *testing.T) {
	for name, l := range countedShapeLogs(t) {
		src := colstore.Build(l)
		for _, q := range countedShapeQueries {
			p := pattern.MustParse(q)
			if !eval.Counted(p, eval.ShapeCount, eval.StrategyMerge) {
				continue
			}
			snapshot := func(shape eval.Shape, workers int) []eval.NodeStats {
				m := eval.NewMeter(p)
				if _, err := eval.New(src, eval.Options{Meter: m}).AnswerCtx(context.Background(), p, src.WIDs(), workers, shape, nil); err != nil {
					t.Fatal(err)
				}
				return m.Snapshot()
			}
			want := snapshot(eval.ShapeIncidents, 1)
			for _, workers := range []int{1, 3} {
				got := snapshot(eval.ShapeCount, workers)
				for i := range want {
					g, w := got[i], want[i]
					if !g.Atom {
						if g.Comparisons == 0 && w.Comparisons > 0 {
							t.Errorf("%s/%s: node %s joined %d × %d incidents in no comparison", name, q, g.Node, g.LeftInputs, g.RightInputs)
						}
						g.Comparisons, w.Comparisons = 0, 0
					}
					if g != w {
						t.Errorf("%s/%s, %d workers: node %s metered\n counted:    %+v\n enumerated: %+v", name, q, workers, g.Node, g, w)
					}
				}
			}
		}
	}
}

// benchPool is bench/'s query set Q (first spellings).
var benchPool = []string{
	"SeeDoctor", "GetReimburse", "!SeeDoctor", "CheckIn . SeeDoctor", "SeeDoctor -> PayTreatment",
	"GetRefer | GetReimburse", "UpdateRefer & TakeTreatment", "GetRefer -> (SeeDoctor -> PayTreatment)",
	"(SeeDoctor -> PayTreatment) | (SeeDoctor -> UpdateRefer)", "START -> END", "NoSuchActivity -> SeeDoctor",
	"UpdateRefer & (TakeTreatment | GetReimburse)",
}

// TestBenchPoolPlansAreCounted: every plan the benchmark's schedule sends in
// count, exists and instances mode is answered without an incident — the
// choice of sequences only as the optimizer rewrites it (Theorem 5).
func TestBenchPoolPlansAreCounted(t *testing.T) {
	l, err := clinic.Generate(200, 1)
	if err != nil {
		t.Fatal(err)
	}
	ix := eval.NewIndex(l)
	for _, q := range benchPool {
		plan, _ := rewrite.Optimize(pattern.MustParse(q), ix)
		for _, shape := range []eval.Shape{eval.ShapeCount, eval.ShapeInstances} {
			if !eval.Counted(plan, shape, eval.StrategyMerge) {
				t.Errorf("%s (plan %s): %v answer is enumerated", q, plan, shape)
			}
			if eval.Counted(plan, shape, eval.StrategyNaive) {
				t.Errorf("%s: counted under the naive strategy", q)
			}
		}
		if eval.Counted(plan, eval.ShapeIncidents, eval.StrategyMerge) {
			t.Errorf("%s: an incidents answer cannot be counted", q)
		}
	}
	if q := pattern.MustParse(benchPool[8]); eval.Counted(q, eval.ShapeCount, eval.StrategyMerge) {
		t.Errorf("%s as written (⊗ over sequences) is counted", q)
	}
}

// TestCountedAnswersBuildNoIncident: what a counted answer allocates is the
// goroutine's scratch, whatever the size of the answer — 10 times the
// instances, 10 times the incidents, the same allocations. An incidents
// answer adds the blocks it is kept in: one per 1024 incidents, and one per
// 4096 of their is-lsns.
func TestCountedAnswersBuildNoIncident(t *testing.T) {
	// allocs answers the query over n clinic instances and returns the
	// allocations, the incidents and their is-lsns.
	allocs := func(n int, q string, shape eval.Shape) (float64, int, int) {
		l, err := clinic.Generate(n, 1)
		if err != nil {
			t.Fatal(err)
		}
		cs := colstore.Build(l)
		p := pattern.MustParse(q)
		var a eval.Answer
		perRun := testing.AllocsPerRun(5, func() {
			if a, err = eval.New(cs, eval.Options{Meter: eval.NewMeter(p)}).AnswerCtx(context.Background(), p, cs.WIDs(), 1, shape, nil); err != nil {
				t.Fatal(err)
			}
		})
		seqs := 0
		for _, o := range slices.Concat(a.Incidents...) {
			seqs += o.Len()
		}
		return perRun, a.Count, seqs
	}
	for _, q := range []string{"SeeDoctor -> PayTreatment", "GetRefer -> (SeeDoctor -> PayTreatment)", "UpdateRefer & (TakeTreatment | GetReimburse)", "!SeeDoctor"} {
		for _, shape := range []eval.Shape{eval.ShapeCount, eval.ShapeInstances, eval.ShapeIncidents} {
			small, nSmall, seqsSmall := allocs(100, q, shape)
			large, nLarge, seqsLarge := allocs(1000, q, shape)
			blocks := 0
			if shape == eval.ShapeIncidents {
				blocks = (nLarge-nSmall)/1024 + (seqsLarge-seqsSmall)/4096 + 2
			}
			t.Logf("%s %v: %d incidents %.0f allocs, %d incidents %.0f allocs", q, shape, nSmall, small, nLarge, large)
			if nLarge < 5*nSmall || large > small+8+float64(blocks) {
				t.Errorf("%s %v: %.0f allocations for %d incidents, %.0f for %d: it grows with the answer", q, shape, small, nSmall, large, nLarge)
			}
		}
	}
}

// TestAllocsPerInstance: with the plan numbered once per query, the
// instance's scratch reused and the answer copied into blocks, an
// evaluation allocates a handful of objects per query, not per instance —
// and a repeated half costs no second rendering.
func TestAllocsPerInstance(t *testing.T) {
	l, err := clinic.Generate(500, 1)
	if err != nil {
		t.Fatal(err)
	}
	cs := colstore.Build(l)
	perInstance := func(q string) float64 {
		p := pattern.MustParse(q)
		e := eval.New(cs, eval.Options{Meter: eval.NewMeter(p)})
		allocs := testing.AllocsPerRun(5, func() {
			if _, err := e.EvalParallelCtx(context.Background(), p, 1, nil); err != nil {
				t.Fatal(err)
			}
		})
		return allocs / float64(len(cs.WIDs()))
	}
	once := perInstance("GetRefer -> GetReimburse")
	twice := perInstance("(GetRefer -> GetReimburse) | (GetRefer -> GetReimburse)")
	t.Logf("allocations per instance: P %.3f, (P) | (P) %.3f", once, twice)
	if once > 0.1 {
		t.Errorf("GetRefer -> GetReimburse allocates %.3f objects per instance, want at most 0.1", once)
	}
	if twice > 0.1 {
		t.Errorf("(P) | (P) allocates %.3f objects per instance, want at most 0.1", twice)
	}
}

// TestEveryEntryPointCallsTheFaultHook: Exists and Count run the same
// guarded scan as the context-aware entry points.
func TestEveryEntryPointCallsTheFaultHook(t *testing.T) {
	e := eval.New(eval.NewIndex(clinic.Fig3()), eval.Options{})
	// No incident, so nothing stops the scan early, and every instance
	// carries both activities, so none is skipped.
	p := pattern.MustParse("GetRefer -> START")
	calls := 0
	eval.SetEvalHook(func(uint64) { calls++ })
	defer eval.SetEvalHook(nil)
	e.Exists(p)
	if calls != 3 {
		t.Errorf("Exists called the hook %d times over 3 instances", calls)
	}
	calls = 0
	e.Count(pattern.MustParse("GetRefer -> START -> GetRefer")) // three atoms: a summarised chain
	if calls != 3 {
		t.Errorf("Count called the hook %d times over 3 instances", calls)
	}
}

// TestExistsCtxStopsAtTheFirstMatch: every Figure 3 instance has a GetRefer,
// so only the first is evaluated.
func TestExistsCtxStopsAtTheFirstMatch(t *testing.T) {
	e := eval.New(eval.NewIndex(clinic.Fig3()), eval.Options{})
	evaluated := 0
	eval.SetEvalHook(func(uint64) { evaluated++ })
	defer eval.SetEvalHook(nil)
	ok, err := e.ExistsCtx(context.Background(), pattern.MustParse("GetRefer"))
	if err != nil || !ok || evaluated != 1 {
		t.Errorf("ExistsCtx = %v, %v after %d of 3 instances; want true after 1", ok, err, evaluated)
	}
}

var sinkSet *incident.Set

// BenchmarkEvalServed is the served evaluation path in process: the
// columnar store, meter on, 2 workers. Before/after numbers in CHANGES.md
// come from `go test -bench EvalServed -benchtime 100x`.
func BenchmarkEvalServed(b *testing.B) {
	l, err := clinic.Generate(5000, 1)
	if err != nil {
		b.Fatal(err)
	}
	cs := colstore.Build(l)
	for _, q := range []string{
		"GetRefer",
		"GetRefer -> GetReimburse",
		"SeeDoctor . PayTreatment",
		"(GetRefer -> SeeDoctor) | (GetRefer -> PayTreatment)",
	} {
		p := pattern.MustParse(q)
		b.Run(q, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				set, err := eval.New(cs, eval.Options{Meter: eval.NewMeter(p)}).EvalParallelCtx(context.Background(), p, 2, nil)
				if err != nil {
					b.Fatal(err)
				}
				sinkSet = set
			}
		})
	}
}

var sinkCount int

// BenchmarkCountShapes prices a count over bench/'s twelve plans on the
// benchmark's log, served-style (columnar store, meter on, 2 workers): as the
// counter answers it, and as the fold over the enumeration that the naive
// strategy and uncountable plans get.
func BenchmarkCountShapes(b *testing.B) {
	l, err := clinic.Generate(5000, 1)
	if err != nil {
		b.Fatal(err)
	}
	cs := colstore.Build(l)
	for _, q := range benchPool {
		plan, _ := rewrite.Optimize(pattern.MustParse(q), cs)
		for _, c := range []struct {
			name  string
			shape eval.Shape
		}{{"counted", eval.ShapeCount}, {"enumerated", eval.ShapeIncidents}} {
			b.Run(c.name+"/"+q, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					a, err := eval.New(cs, eval.Options{Meter: eval.NewMeter(plan)}).AnswerCtx(context.Background(), plan, cs.WIDs(), 2, c.shape, nil)
					if err != nil {
						b.Fatal(err)
					}
					sinkCount = a.Count
				}
			})
		}
	}
}

// BenchmarkServeEvalMix is the evaluator's share of bench/'s eval-mix, in
// process: its 52 requests over ClinicLog(5000), each run as the query
// service runs one — parsed, optimized, on a fresh meter, under a timeout,
// through ServeCtx over the whole wid list on one goroutine. counted is the
// 40 requests in count, exists (a count) and instances mode, enumerated the
// 12 in incidents mode.
func BenchmarkServeEvalMix(b *testing.B) {
	l, err := clinic.Generate(5000, 1)
	if err != nil {
		b.Fatal(err)
	}
	cs := colstore.Build(l)
	type request struct {
		q     string
		shape eval.Shape
	}
	var counted, enumerated []request
	for _, q := range benchPool {
		counted = append(counted, request{q, eval.ShapeCount}, request{q, eval.ShapeCount}, request{q, eval.ShapeInstances})
		enumerated = append(enumerated, request{q, eval.ShapeIncidents})
	}
	for _, q := range []string{"SeeDoctor -> PayTreatment", "NoSuchActivity -> SeeDoctor", "GetReimburse", "UpdateRefer & TakeTreatment"} {
		counted = append(counted, request{q, eval.ShapeCount})
	}
	for _, mix := range []struct {
		name string
		reqs []request
	}{{"counted", counted}, {"enumerated", enumerated}} {
		b.Run(mix.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, r := range mix.reqs {
					plan, _ := rewrite.Optimize(pattern.MustParse(r.q), cs)
					ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
					a, err := eval.New(cs, eval.Options{Meter: eval.NewMeter(plan)}).ServeCtx(ctx, plan, cs.WIDs(), 1, r.shape, nil)
					cancel()
					if err != nil {
						b.Fatal(err)
					}
					eval.Recycle(a.Wire)
				}
			}
		})
	}
}

// guardedQueries read an int attribute (on αout, then αin) and a string one.
var guardedQueries = []string{"GetReimburse[balance>2000]", `GetRefer[hospital="Union Hospital"]`}

// TestGuardedProbeAllocatesNothingPerCandidate: a guard reads each candidate
// record's attribute in place in the store, so a guarded atom's count over
// the whole log allocates what it does over one instance.
func TestGuardedProbeAllocatesNothingPerCandidate(t *testing.T) {
	l, err := clinic.Generate(500, 1)
	if err != nil {
		t.Fatal(err)
	}
	cs := colstore.Build(l)
	ev := eval.New(cs, eval.Options{})
	for _, q := range guardedQueries {
		p := pattern.MustParse(q)
		allocs := func(wids []uint64) float64 {
			return testing.AllocsPerRun(20, func() {
				if _, err := ev.AnswerCtx(context.Background(), p, wids, 1, eval.ShapeCount, nil); err != nil {
					t.Fatal(err)
				}
			})
		}
		if a, n := allocs(cs.WIDs()), eval.New(cs, eval.Options{}).Count(p); n == 0 || a > allocs(cs.WIDs()[:1]) {
			t.Errorf("%s: %.0f allocations over %d instances (%d matches), more than over one", q, a, len(cs.WIDs()), n)
		}
	}
}

// BenchmarkGuardedAtom prices guarded atoms on the benchmark's log: every
// candidate record's attribute is read in the store.
func BenchmarkGuardedAtom(b *testing.B) {
	l, err := clinic.Generate(5000, 1)
	if err != nil {
		b.Fatal(err)
	}
	cs := colstore.Build(l)
	for _, q := range guardedQueries {
		p := pattern.MustParse(q)
		b.Run(q, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				a, err := eval.New(cs, eval.Options{}).AnswerCtx(context.Background(), p, cs.WIDs(), 1, eval.ShapeIncidents, nil)
				if err != nil {
					b.Fatal(err)
				}
				sinkCount = a.Count
			}
		})
	}
}
