package colstore

import (
	"context"
	"math/rand"
	"slices"
	"testing"

	"wlq/internal/core/eval"
	"wlq/internal/core/incident"
	"wlq/internal/core/pattern"
	"wlq/internal/gen"
	"wlq/internal/wlog"
)

// assertAnswers holds a store, under both join strategies and in every
// answer shape, to the oracle's incident set.
func assertAnswers(t *testing.T, name string, cs *Store, p pattern.Node, want *incident.Set) {
	t.Helper()
	for _, strat := range []eval.Strategy{eval.StrategyNaive, eval.StrategyMerge} {
		ev := eval.New(cs, eval.Options{Strategy: strat})
		for _, shape := range []eval.Shape{eval.ShapeIncidents, eval.ShapeInstances, eval.ShapeCount} {
			a, err := ev.AnswerCtx(context.Background(), p, cs.WIDs(), 2, shape, nil)
			if err != nil || a.Count != want.Len() ||
				shape == eval.ShapeIncidents && !slices.EqualFunc(slices.Concat(a.Incidents...), want.Incidents(), incident.Incident.Equal) ||
				shape == eval.ShapeInstances && !slices.Equal(a.WIDs, want.WIDs()) {
				t.Fatalf("%s/%v/%v: %s = %+v, %v\noracle: %s", name, strat, shape, p, a, err, want)
			}
		}
		if ex := ev.Exists(p); ex != (want.Len() > 0) {
			t.Fatalf("%s/%v: Exists(%s) = %v, oracle has %d incidents", name, strat, p, ex, want.Len())
		}
	}
}

// assertStoreMatchesOracle holds every way of building a Store — in bulk,
// appended record by record from empty, appended onto a bulk-built prefix,
// and every other instance appended record by record onto the rest (opening
// wids before, between and after those there), each in both posting
// layouts — to naive Algorithm 1 over the oracle's index, and its instance
// postings to the index's and to a scan of its directory. The version taken
// half way must answer for the first half while and after a writer appends
// the rest to it.
func assertStoreMatchesOracle(t *testing.T, l *wlog.Log, p pattern.Node) {
	t.Helper()
	oracle := func(l *wlog.Log) *incident.Set {
		return eval.New(eval.NewIndex(l), eval.Options{Strategy: eval.StrategyNaive}).Eval(p)
	}
	recs := l.Records()
	mid := len(recs) / 2
	want, wantMid := oracle(l), oracle(wlog.MustNew(recs[:mid]))
	ix, ixMid := eval.NewIndex(l), eval.NewIndex(wlog.MustNew(recs[:mid]))
	var odd, even []wlog.Record // by the instance's position in the log
	for _, r := range recs {
		if i, _ := slices.BinarySearch(l.WIDs(), r.WID); i%2 == 0 {
			even = append(even, r)
		} else {
			odd = append(odd, r)
		}
	}
	for layout, empty := range map[string]*Store{"dense": {}, "sparse": {sparse: true}} {
		grown, half := empty, empty.Append(recs[:mid]...)
		for _, r := range recs[:mid] {
			grown = grown.Append(r)
		}
		halfway := grown
		rest := make(chan [2]*Store, 1)
		go func() {
			a, b := halfway, half
			for _, r := range recs[mid:] {
				a, b = a.Append(r), b.Append(r)
			}
			rest <- [2]*Store{a, b}
		}()
		assertAnswers(t, layout+"/halfway", halfway, p, wantMid)
		done := <-rest
		interleaved := empty.Append(odd...)
		for _, r := range even {
			interleaved = interleaved.Append(r)
		}
		for name, cs := range map[string]*Store{"bulk": empty.Append(recs...), "appended": done[0], "prefix+appended": done[1], "interleaved": interleaved} {
			assertAnswers(t, layout+"/"+name, cs, p, want)
			assertPostingsMatch(t, layout+"/"+name, cs, ix)
		}
		assertAnswers(t, layout+"/halfway after the rest", halfway, p, wantMid)
		assertAnswers(t, layout+"/prefix after the rest", half, p, wantMid)
		assertPostingsMatch(t, layout+"/halfway after the rest", halfway, ixMid)
		assertPostingsMatch(t, layout+"/prefix after the rest", half, ixMid)
	}
}

// assertPostingsMatch holds a store's instance postings to the index's,
// activity by activity, and to a scan of its own directory.
func assertPostingsMatch(t *testing.T, name string, cs *Store, ix *eval.Index) {
	t.Helper()
	if !slices.Equal(cs.WIDs(), ix.WIDs()) || !slices.Equal(cs.Activities(), ix.Activities()) {
		t.Fatalf("%s: wids %v and activities %v, the index has %v and %v", name, cs.WIDs(), cs.Activities(), ix.WIDs(), ix.Activities())
	}
	for _, act := range ix.Activities() {
		csym, _ := cs.ResolveActivity(act)
		isym, _ := ix.ResolveActivity(act)
		if got, want := cs.InstancesWith(csym), ix.InstancesWith(isym); !slices.Equal(got, want) {
			t.Fatalf("%s: InstancesWith(%q) = %v, the index has %v", name, act, got, want)
		}
	}
	assertInstancePostings(t, cs)
}

// FuzzStoreMatchesIndex is the differential check behind serving every log
// from the Store: a seed picks a random log, with attributes on its records,
// and a random pattern (all four operators, negated and guarded atoms), and
// every even seed also runs the Theorem 1 adversarial pair.
func FuzzStoreMatchesIndex(f *testing.F) {
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
		if err != nil {
			t.Fatal(err)
		}
		// Beyond the log's alphabet: an absent activity and the boundary records.
		p := gen.RandomPattern(rng, gen.PatternParams{
			Operators:  rng.Intn(5),
			Alphabet:   append(alphabet, "NoSuchActivity", "START", "END"),
			NegateProb: 0.25,
		})
		assertStoreMatchesOracle(t, withAttrs(rng, l), withGuards(rng, p))
		if seed%2 == 0 {
			assertStoreMatchesOracle(t, gen.WorstCaseLog(2+rng.Intn(8)), gen.WorstCasePattern(1+rng.Intn(3)))
		}
	})
}
