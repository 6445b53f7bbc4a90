package colstore

import (
	"testing"

	"wlq/internal/core/eval"
	"wlq/internal/core/rewrite"
	"wlq/internal/wlog"
)

// grownIndex feeds l to an empty index one record at a time — the layout a
// live log is served from.
func grownIndex(l *wlog.Log) *eval.Index {
	ix := eval.NewEmptyIndex()
	for i := 0; i < l.Len(); i++ {
		ix.Append(l.Record(i))
	}
	return ix
}

// The index as live ingestion grows it must answer every query as naive
// Algorithm 1 over the bulk-built index does (TestCrossBackendEquivalence
// holds the Store to the same matrix): incremental Algorithm 2 maintenance
// changes nothing.
func TestLiveIndexEquivalence(t *testing.T) {
	for logName, l := range equivalenceLogs(t) {
		oracle := eval.New(eval.NewIndex(l), eval.Options{Strategy: eval.StrategyNaive})
		live := grownIndex(l)
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
						t.Fatalf("grown index diverges from the oracle:\noracle: %s\nlive:   %s", want, got)
					}
				})
			}
		}
	}
}

// The grown index must report the same records, probes and planner
// statistics as the batch build, or a plan would differ live vs. reloaded.
func TestLiveIndexSourceMethods(t *testing.T) {
	for logName, l := range equivalenceLogs(t) {
		t.Run(logName, func(t *testing.T) {
			assertSourcesAgree(t, grownIndex(l), Build(l), l)
		})
	}
}
