package eval_test

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"

	"wlq/internal/clinic"
	"wlq/internal/colstore"
	"wlq/internal/core/eval"
	"wlq/internal/core/incident"
	"wlq/internal/core/pattern"
	"wlq/internal/wlog"
)

// lifetimeQuery is enumerated (⊗ over sequences is uncountable) and mixes
// what an incident's is-lsns can live in while an instance is evaluated:
// posting-list views (the atoms), a negated atom's buffer, and join output.
const lifetimeQuery = "(GetRefer -> SeeDoctor) | (SeeDoctor . !GetRefer)"

// TestIncidentsAnswerOutlivesItsScan: an incidents answer is its own — it
// reads the same after a second query on the same store, after an append to
// the wids it covers, and after 8 queries run at once (the race detector
// watches the last) — and it does not alias the source: overwriting every
// posting list the evaluation was handed leaves it as it was. A served
// answer's bytes are its own too: later served queries, whose goroutines
// write into the chunk buffers earlier ones left in the pool, and 8 at once
// leave them as they were.
func TestIncidentsAnswerOutlivesItsScan(t *testing.T) {
	ctx := context.Background()
	l, err := clinic.Generate(300, 1)
	if err != nil {
		t.Fatal(err)
	}
	cs := colstore.Build(l)
	p := pattern.MustParse(lifetimeQuery)
	for _, strat := range []eval.Strategy{eval.StrategyNaive, eval.StrategyMerge} {
		e := eval.New(cs, eval.Options{Strategy: strat})
		a, err := e.AnswerCtx(ctx, p, cs.WIDs(), 3, eval.ShapeIncidents, nil)
		if err != nil || a.Count == 0 {
			t.Fatalf("%v: %s = %+v, %v", strat, p, a, err)
		}
		want := fmt.Sprint(a.Incidents)
		unchanged := func(after string) {
			t.Helper()
			if got := fmt.Sprint(a.Incidents); got != want {
				t.Fatalf("%v: the answer changed after %s", strat, after)
			}
		}

		if _, err := e.AnswerCtx(ctx, pattern.MustParse("SeeDoctor & !PayTreatment"), cs.WIDs(), 3, eval.ShapeIncidents, nil); err != nil {
			t.Fatal(err)
		}
		unchanged("a second query on the same store")

		var recs []wlog.Record
		for i, wid := range cs.WIDs() {
			recs = append(recs, wlog.Record{LSN: cs.LastLSN() + uint64(i) + 1, WID: wid, Seq: uint64(len(cs.Row(i).Post)) + 1, Activity: clinic.ActSeeDoctor})
		}
		grown := cs.Append(recs...)
		if _, err := eval.New(grown, eval.Options{Strategy: strat}).AnswerCtx(ctx, p, grown.WIDs(), 3, eval.ShapeIncidents, nil); err != nil {
			t.Fatal(err)
		}
		unchanged("an append to the same wids")

		var wg sync.WaitGroup
		for i := 0; i < 8; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				b, err := e.AnswerCtx(ctx, p, cs.WIDs(), 2, eval.ShapeIncidents, nil)
				if err != nil || !slices.EqualFunc(slices.Concat(b.Incidents...), slices.Concat(a.Incidents...), incident.Incident.Equal) {
					t.Errorf("%v: a concurrent query answered %d incidents, %v; want %d", strat, b.Count, err, a.Count)
				}
			}()
		}
		wg.Wait()
		unchanged("8 concurrent queries")

		// Served answers, each kept with a copy of its bytes: two patterns in
		// turn, on one goroutine and on three, so that every query after the
		// first writes into chunk buffers an earlier one left in the pool.
		type kept struct {
			wire []byte
			was  string
		}
		var answers []kept
		for i := 0; i < 4; i++ {
			for _, q := range []string{lifetimeQuery, "SeeDoctor | GetRefer"} {
				b, err := e.ServeCtx(ctx, pattern.MustParse(q), cs.WIDs(), 1+2*(i%2), eval.ShapeIncidents, nil, nil)
				if err != nil || b.Count == 0 {
					t.Fatalf("%v: ServeCtx(%s) = %d incidents, %v", strat, q, b.Count, err)
				}
				answers = append(answers, kept{b.Wire, string(b.Wire)})
			}
		}
		wire := answers[0].was
		for i := 0; i < 8; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if b, err := e.ServeCtx(ctx, p, cs.WIDs(), 2, eval.ShapeIncidents, nil, nil); err != nil || string(b.Wire) != wire {
					t.Errorf("%v: a concurrent served query answered %d incidents, %v; want %d", strat, b.Count, err, a.Count)
				}
			}()
		}
		wg.Wait()
		for i, k := range answers {
			if string(k.wire) != k.was {
				t.Fatalf("%v: the bytes of served answer %d changed after later served queries", strat, i)
			}
		}

		// Incidents built by joins, and atoms' views of the postings.
		for _, q := range []string{lifetimeQuery, "SeeDoctor | GetRefer"} {
			src := &scribbledSource{Source: cs}
			b, err := eval.New(src, eval.Options{Strategy: strat}).AnswerCtx(ctx, pattern.MustParse(q), cs.WIDs(), 3, eval.ShapeIncidents, nil)
			if err != nil {
				t.Fatal(err)
			}
			before := fmt.Sprint(b.Incidents)
			src.scribble()
			if fmt.Sprint(b.Incidents) != before {
				t.Fatalf("%v: the answer to %s aliases the posting lists it was built from", strat, q)
			}
		}
	}
}

// scribbledSource hands out every posting row with a copy of its posting
// lists it remembers, so a test can overwrite all of them once the
// evaluation that read them is over.
type scribbledSource struct {
	eval.Source
	mu     sync.Mutex
	handed [][]uint64
}

func (s *scribbledSource) Row(pos int) eval.Row {
	row := s.Source.Row(pos)
	row.Post = slices.Clone(row.Post)
	s.mu.Lock()
	s.handed = append(s.handed, row.Post)
	s.mu.Unlock()
	return row
}

func (s *scribbledSource) scribble() {
	for _, seqs := range s.handed {
		for i := range seqs {
			seqs[i] = math.MaxUint64
		}
	}
}

// TestPoisonedInstanceKeepsNothing: in one goroutine's chunk, an instance
// that panics halfway — after its atoms and first joins wrote the scratch —
// between two healthy ones adds none of its incidents to the answer, nor a
// byte of them to a served answer, which still reads as a list with the
// coordinator's reader (assertExclusions); and the healthy ones after it
// answer as if it had not run.
func TestPoisonedInstanceKeepsNothing(t *testing.T) {
	l := traceLog(t,
		[]string{"A", "B", "A", "B"},
		[]string{"A", "B", "A", "B", "A", "B", "A"},
		[]string{"B", "A", "B"})
	for _, q := range []string{"A -> B", "(A -> B) & (A . B)", "(A -> B) | (B -> A)", "!A -> B"} {
		p := pattern.MustParse(q)
		want := eval.New(eval.NewIndex(l), eval.Options{Strategy: eval.StrategyNaive}).Eval(p)
		assertExclusions(t, l, p, want, l.WIDs()[1:2])
	}
}
