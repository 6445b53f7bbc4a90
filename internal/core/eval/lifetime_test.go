package eval_test

import (
	"context"
	"fmt"
	"math"
	"runtime"
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
// write into the buffers of answers handed back to the pool (eval.Recycle),
// and 8 at once leave them as they were.
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
		// turn, on one goroutine and on three, each followed by a query whose
		// answer goes back to the pool, so that every query after the first
		// writes into buffers an earlier one left there.
		type kept struct {
			wire [][]byte
			was  string
		}
		var answers []kept
		for i := 0; i < 4; i++ {
			for _, q := range []string{lifetimeQuery, "SeeDoctor | GetRefer"} {
				b, err := e.ServeCtx(ctx, pattern.MustParse(q), cs.WIDs(), 1+2*(i%2), eval.ShapeIncidents, nil)
				if err != nil || b.Count == 0 {
					t.Fatalf("%v: ServeCtx(%s) = %d incidents, %v", strat, q, b.Count, err)
				}
				answers = append(answers, kept{b.Wire, wireOf(b.Wire)})
				spent, err := e.ServeCtx(ctx, p, cs.WIDs(), 3, eval.ShapeIncidents, nil)
				if err != nil {
					t.Fatal(err)
				}
				eval.Recycle(spent.Wire)
			}
		}
		wire := answers[0].was
		for i := 0; i < 8; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				b, err := e.ServeCtx(ctx, p, cs.WIDs(), 2, eval.ShapeIncidents, nil)
				if err != nil || wireOf(b.Wire) != wire {
					t.Errorf("%v: a concurrent served query answered %d incidents, %v; want %d", strat, b.Count, err, a.Count)
				}
				eval.Recycle(b.Wire)
			}()
		}
		wg.Wait()
		for i, k := range answers {
			if wireOf(k.wire) != k.was {
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

// TestServedScanCopiesOnce: a served scan writes each byte of its answer
// once, in the goroutine that evaluated the instance, into a buffer from the
// pool written answers go back to (eval.Recycle), and answers with the
// goroutines' lists as they stand. So once the pool holds a buffer per
// goroutine, as it does when the query service runs, an incidents ServeCtx
// on 1, 2 or 3 goroutines allocates its scratch and none of its answer's
// bytes. A join of the lists would copy them again: into fresh memory, about
// the answer's bytes; into the first list's buffer, all but its own share
// and then some, as the buffer grows. Either is over the bound, which is a
// quarter of the answer's bytes.
func TestServedScanCopiesOnce(t *testing.T) {
	l, err := clinic.Generate(4000, 1)
	if err != nil {
		t.Fatal(err)
	}
	cs := colstore.Build(l)
	p := pattern.MustParse("GetRefer | SeeDoctor")
	e := eval.New(cs, eval.Options{})
	for workers := 1; workers <= 3; workers++ {
		serve := func() eval.Answer {
			a, err := e.ServeCtx(context.Background(), p, cs.WIDs(), workers, eval.ShapeIncidents, nil)
			if err != nil || len(a.Wire) != workers {
				t.Fatalf("%d goroutines: %d incidents in %d lists, %v", workers, a.Count, len(a.Wire), err)
			}
			return a
		}
		size := len(wireOf(serve().Wire))
		// Room for a goroutine's even share of the answer and a quarter more:
		// the clinic log spreads its incidents evenly enough.
		share := size / workers * 5 / 4
		// The least of single runs: under the race detector sync.Pool drops
		// items at random, which costs a run a buffer now and then.
		perAnswer := math.Inf(1)
		for range 21 {
			// Empty the pool, then fill it as written answers do: a buffer of a
			// share for each goroutine, and one more, since a goroutine on
			// another processor cannot take the buffer that went into this
			// one's private slot.
			runtime.GC()
			runtime.GC()
			bufs := make([][]byte, workers+1)
			for i := range bufs {
				bufs[i] = make([]byte, 0, share)
			}
			eval.Recycle(bufs)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			a := serve()
			runtime.ReadMemStats(&after)
			perAnswer = min(perAnswer, float64(after.TotalAlloc-before.TotalAlloc))
			if got := wireOf(a.Wire); len(got) != size {
				t.Fatalf("%d goroutines: an answer of %d bytes, then of %d", workers, size, len(got))
			}
		}
		t.Logf("%d goroutines: an answer of %d bytes allocates %.0f bytes (%.2f×)", workers, size, perAnswer, perAnswer/float64(size))
		if perAnswer > 0.25*float64(size) {
			t.Errorf("%d goroutines: an answer of %d bytes allocates %.0f bytes, over a quarter of the answer: its bytes are copied again", workers, size, perAnswer)
		}
	}
}
