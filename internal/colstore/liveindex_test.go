package colstore

import (
	"testing"

	"wlq/internal/core/eval"
	"wlq/internal/core/rewrite"
	"wlq/internal/wlog"
)

// grownStore appends l to an empty store one record at a time, keeping only
// the newest version — the way a live log grows.
func grownStore(l *wlog.Log) *Store {
	s := new(Store)
	for i := 0; i < l.Len(); i++ {
		s = s.Append(l.Record(i))
	}
	return s
}

// The store as live ingestion grows it must answer every query as naive
// Algorithm 1 over the oracle's index does (TestCrossBackendEquivalence holds
// the bulk-built store to the same matrix): appending changes nothing.
func TestLiveIndexEquivalence(t *testing.T) {
	for logName, l := range equivalenceLogs(t) {
		oracle := eval.New(eval.NewIndex(l), eval.Options{Strategy: eval.StrategyNaive})
		live := grownStore(l)
		for _, q := range equivalenceQueries {
			for _, rewritten := range []bool{false, true} {
				name := logName + "/" + q
				if rewritten {
					name += "/rewritten"
				}
				t.Run(name, func(t *testing.T) {
					want := oracle.Eval(parse(t, q))
					p := parse(t, q)
					if rewritten {
						p, _ = rewrite.Optimize(p, live)
					}
					if got := eval.New(live, eval.Options{}).Eval(p); !got.Equal(want) {
						t.Fatalf("grown store diverges from the oracle:\noracle: %s\nlive:   %s", want, got)
					}
				})
			}
		}
	}
}

// The grown store must report the same records, probes and planner
// statistics as the oracle's index, or a plan would differ live vs. reloaded.
func TestLiveIndexSourceMethods(t *testing.T) {
	for logName, l := range equivalenceLogs(t) {
		t.Run(logName, func(t *testing.T) {
			assertSourcesAgree(t, eval.NewIndex(l), grownStore(l), l)
		})
	}
}
