package colstore

import (
	"math/rand"
	"testing"

	"wlq/internal/core/eval"
	"wlq/internal/core/pattern"
	"wlq/internal/gen"
	"wlq/internal/wlog"
)

// assertStoreMatchesOracle holds both Store layouts (dense, and sparse as
// forced by a zero dense budget), under both join strategies and in every
// answer mode, to naive Algorithm 1 over the row index.
func assertStoreMatchesOracle(t *testing.T, l *wlog.Log, p pattern.Node) {
	t.Helper()
	want := eval.New(eval.NewIndex(l), eval.Options{Strategy: eval.StrategyNaive}).Eval(p)
	for layout, cs := range map[string]*Store{"dense": Build(l), "sparse": build(l, 0)} {
		for _, strat := range []eval.Strategy{eval.StrategyNaive, eval.StrategyMerge} {
			ev := eval.New(cs, eval.Options{Strategy: strat})
			if got := ev.Eval(p); !got.Equal(want) {
				t.Fatalf("%s/%v: %s\nstore:  %s\noracle: %s", layout, strat, p, got, want)
			}
			if n := ev.Count(p); n != want.Len() {
				t.Fatalf("%s/%v: Count(%s) = %d, oracle has %d incidents", layout, strat, p, n, want.Len())
			}
			if ex := ev.Exists(p); ex != (want.Len() > 0) {
				t.Fatalf("%s/%v: Exists(%s) = %v, oracle has %d incidents", layout, strat, p, ex, want.Len())
			}
		}
	}
}

// FuzzStoreMatchesIndex is the differential check behind serving immutable
// logs from the Store: a seed picks a random log and a random pattern (all
// four operators, negated atoms), and every even seed also runs the
// Theorem 1 adversarial pair.
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
		assertStoreMatchesOracle(t, l, p)
		if seed%2 == 0 {
			assertStoreMatchesOracle(t, gen.WorstCaseLog(2+rng.Intn(8)), gen.WorstCasePattern(1+rng.Intn(3)))
		}
	})
}
