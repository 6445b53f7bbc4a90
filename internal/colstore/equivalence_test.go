package colstore

import (
	"context"
	"slices"
	"testing"

	"wlq/internal/core/eval"
	"wlq/internal/core/incident"
	"wlq/internal/core/pattern"
	"wlq/internal/core/rewrite"
	"wlq/internal/gen"
	"wlq/internal/wlog"
)

// The cross-backend equivalence suite: for every operator, with and without
// the rewriter, scanned serially and in chunks, the served store's incident
// sets must be identical (same incidents, same normalized order) to those of
// the oracle's row index, whose storage shares nothing with the store's.

var equivalenceQueries = []string{
	// Each operator alone, and each in composition.
	"Act00 . Act01",
	"Act00 -> Act02",
	"Act01 | Act03",
	"Act00 & Act01",
	"(Act00 . Act01) -> Act02",
	"(Act00 -> Act01) | (Act00 -> Act02)",
	"(Act00 | Act01) & Act02",
	"Act00 -> (Act01 & (Act02 | Act03))",
	// Negation and absent activities.
	"!Act00 . Act01",
	"Act00 -> NoSuchActivity",
	"!NoSuchActivity & Act01",
	// START/END boundary records.
	"START . Act00",
	"Act00 -> END",
}

func equivalenceLogs(t *testing.T) map[string]*wlog.Log {
	t.Helper()
	return map[string]*wlog.Log{
		"uniform": gen.MustRandomLog(gen.LogParams{
			Instances: 40, MeanLength: 20, Seed: 11,
		}),
		"skewed": gen.MustRandomLog(gen.LogParams{
			Instances: 25, MeanLength: 30, Skew: 1.3, CompleteFraction: 0.6, Seed: 23,
		}),
	}
}

func parse(t *testing.T, q string) pattern.Node {
	t.Helper()
	p, err := pattern.Parse(q)
	if err != nil {
		t.Fatalf("parse %q: %v", q, err)
	}
	return p
}

func TestCrossBackendEquivalence(t *testing.T) {
	for logName, l := range equivalenceLogs(t) {
		ix := eval.NewIndex(l)
		cs := Build(l)
		for _, q := range equivalenceQueries {
			for _, rewritten := range []bool{false, true} {
				name := logName + "/" + q
				if rewritten {
					name += "/rewritten"
				}
				t.Run(name, func(t *testing.T) {
					rowP, colP := parse(t, q), parse(t, q)
					if rewritten {
						// Each backend feeds its own statistics to the
						// optimizer — the plans must still agree because
						// both backends report identical stats.
						rowP, _ = rewrite.Optimize(rowP, ix)
						colP, _ = rewrite.Optimize(colP, cs)
					}
					want := eval.New(ix, eval.Options{}).Eval(rowP)
					got := eval.New(cs, eval.Options{}).Eval(colP)
					if !want.Equal(got) {
						t.Fatalf("backends disagree:\nrow:      %s\ncolumnar: %s", want, got)
					}
					if want.String() != got.String() {
						t.Fatalf("normalized renderings differ:\nrow:      %s\ncolumnar: %s", want, got)
					}
				})
			}
		}
	}
}

// TestCrossBackendEquivalenceSharded: the scan split into four contiguous
// wid chunks, one goroutine each, answers the same on both backends.
func TestCrossBackendEquivalenceSharded(t *testing.T) {
	for logName, l := range equivalenceLogs(t) {
		ix := eval.NewIndex(l)
		cs := Build(l)
		for _, q := range equivalenceQueries {
			t.Run(logName+"/"+q, func(t *testing.T) {
				p := parse(t, q)
				want, err := eval.New(ix, eval.Options{}).AnswerCtx(context.Background(), p, ix.WIDs(), 4, eval.ShapeIncidents, nil)
				if err != nil {
					t.Fatalf("row backend: %v", err)
				}
				got, err := eval.New(cs, eval.Options{}).AnswerCtx(context.Background(), p, cs.WIDs(), 4, eval.ShapeIncidents, nil)
				if err != nil {
					t.Fatalf("columnar backend: %v", err)
				}
				if len(want.Excluded)+len(got.Excluded) != 0 {
					t.Fatalf("instances excluded: row %v, columnar %v", want.Excluded, got.Excluded)
				}
				if !slices.EqualFunc(slices.Concat(want.Incidents...), slices.Concat(got.Incidents...), incident.Incident.Equal) {
					t.Fatalf("backends disagree over chunks:\nrow:      %v\ncolumnar: %v", want.Incidents, got.Incidents)
				}
			})
		}
	}
}

func TestCrossBackendEquivalenceStrategies(t *testing.T) {
	l := gen.MustRandomLog(gen.LogParams{Instances: 12, MeanLength: 15, Seed: 5})
	ix := eval.NewIndex(l)
	cs := Build(l)
	for _, strat := range []eval.Strategy{eval.StrategyNaive, eval.StrategyMerge} {
		for _, q := range equivalenceQueries {
			t.Run(strat.String()+"/"+q, func(t *testing.T) {
				p := parse(t, q)
				want := eval.New(ix, eval.Options{Strategy: strat}).Eval(p)
				got := eval.New(cs, eval.Options{Strategy: strat}).Eval(p)
				if !want.Equal(got) {
					t.Fatalf("strategy %v disagrees:\nrow:      %s\ncolumnar: %s", strat, want, got)
				}
			})
		}
	}
}

func TestCrossBackendCountAndExists(t *testing.T) {
	l := gen.MustRandomLog(gen.LogParams{Instances: 20, MeanLength: 18, Skew: 0.8, Seed: 31})
	ix := eval.NewIndex(l)
	cs := Build(l)
	for _, q := range equivalenceQueries {
		p := parse(t, q)
		rowEv := eval.New(ix, eval.Options{})
		colEv := eval.New(cs, eval.Options{})
		if rc, cc := rowEv.Count(p), colEv.Count(p); rc != cc {
			t.Errorf("Count(%q): row %d, columnar %d", q, rc, cc)
		}
		if re, ce := rowEv.Exists(p), colEv.Exists(p); re != ce {
			t.Errorf("Exists(%q): row %v, columnar %v", q, re, ce)
		}
	}
}
