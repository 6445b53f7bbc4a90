package eval_test

import (
	"context"
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"wlq/internal/core/eval"
	"wlq/internal/core/incident"
	"wlq/internal/core/pattern"
	"wlq/internal/gen"
	"wlq/internal/wlog"
)

// definition4 is incL(p) read straight off Definition 4, sharing no code with
// the joins, their arenas or the counter: for every instance, every set of
// its records whose size an incident of p can have, kept when Verify finds a
// decomposition of it into sub-incidents. It is exponential in the length of
// an instance, so it is for logs of at most a handful of records each.
func definition4(src eval.Source, p pattern.Node) *incident.Set {
	v := eval.New(src, eval.Options{})
	sizes := eval.PossibleSizes(p)
	var out []incident.Incident
	for _, wid := range src.WIDs() {
		recs := src.Instance(wid)
		for subset := uint(1); subset < 1<<len(recs); subset++ {
			if _, ok := sizes[bits.OnesCount(subset)]; !ok {
				continue
			}
			var seqs []uint64
			for i, r := range recs {
				if subset&(1<<i) != 0 {
					seqs = append(seqs, r.Seq)
				}
			}
			if o := incident.New(wid, seqs...); v.Verify(p, o) {
				out = append(out, o)
			}
		}
	}
	return incident.NewSet(out...)
}

// sameIncidents reports whether an incidents answer's blocks concatenate to
// exactly want's incidents in canonical order, the order a served answer
// spells them in.
func sameIncidents(a eval.Answer, want *incident.Set) bool {
	return slices.EqualFunc(slices.Concat(a.Incidents...), want.Incidents(), incident.Incident.Equal)
}

// TestAnswersMatchDefinition4: on small generated logs (at most 8 records
// an instance), AnswerCtx in every shape, under both join strategies, on one
// goroutine and on three, over both backends, answers what definition4 does —
// for random patterns with all four operators and negated atoms, half of them
// holding a sub-pattern twice (which the merge strategy evaluates once).
func TestAnswersMatchDefinition4(t *testing.T) {
	ops := []pattern.Op{pattern.OpConsecutive, pattern.OpSequential, pattern.OpChoice, pattern.OpParallel}
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		alphabet := gen.Alphabet(2 + rng.Intn(3))
		// START, one to six activities and, for half the instances, END.
		l := gen.MustRandomLog(gen.LogParams{
			Instances:        1 + rng.Intn(6),
			MeanLength:       3,
			Alphabet:         alphabet,
			Skew:             rng.Float64(),
			CompleteFraction: 0.5,
			Seed:             seed,
		})
		random := func(operators int) pattern.Node {
			return gen.RandomPattern(rng, gen.PatternParams{
				Operators:  operators,
				Alphabet:   append(alphabet, wlog.ActivityStart, wlog.ActivityEnd),
				NegateProb: 0.25,
			})
		}
		p := random(1 + rng.Intn(3))
		if seed%2 == 1 {
			sub := random(rng.Intn(2))
			p = &pattern.Binary{
				Op:    ops[rng.Intn(len(ops))],
				Left:  &pattern.Binary{Op: ops[rng.Intn(len(ops))], Left: sub, Right: random(rng.Intn(2))},
				Right: pattern.MustParse(sub.String()),
			}
		}
		ix := eval.NewIndex(l)
		want := definition4(ix, p)
		for name, src := range backends(l) {
			for _, strat := range []eval.Strategy{eval.StrategyNaive, eval.StrategyMerge} {
				e := eval.New(src, eval.Options{Strategy: strat})
				for _, workers := range []int{1, 3} {
					for _, shape := range []eval.Shape{eval.ShapeIncidents, eval.ShapeInstances, eval.ShapeCount} {
						a, err := e.AnswerCtx(context.Background(), p, src.WIDs(), workers, shape, nil)
						if err != nil || a.Count != want.Len() ||
							shape == eval.ShapeIncidents && !sameIncidents(a, want) ||
							shape == eval.ShapeInstances && !slices.Equal(a.WIDs, want.WIDs()) {
							t.Fatalf("seed %d, %s/%v, %d workers, %v: %s answers %+v, %v\nDefinition 4: %s", seed, name, strat, workers, shape, p, a, err, want)
						}
					}
				}
			}
		}
	}
}
