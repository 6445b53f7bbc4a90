package stream

import (
	"fmt"
	"math/rand"
	"testing"

	"wlq/internal/colstore"
	"wlq/internal/core/eval"
	"wlq/internal/core/pattern"
	"wlq/internal/gen"
	"wlq/internal/wlog"
)

// FuzzMonitorBatches: the input bytes choose a random log over A–D, 3–6
// random watches (negated atoms included), the cut points of the Ingest
// batches, and a record before which one more watch is registered late. The
// batched run must raise the same alerts, in the same order, with the same
// counters, as ingesting one record per call; and every alert of a watch
// registered before any record must be the one a per-record reference
// raises: append one record, evaluate its instance, alert at the first
// non-empty answer.
func FuzzMonitorBatches(f *testing.F) {
	f.Add([]byte{0, 1, 3, 2, 1, 40, 5, 1, 9})
	f.Add([]byte{7, 200, 8, 5, 3, 0, 1, 2, 3, 4, 5, 6, 7})
	f.Add([]byte{1, 44, 15, 0, 2, 255, 23, 23})
	f.Add([]byte{9, 9, 4, 3, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return -1
			}
			b := int(data[0])
			data = data[1:]
			return b
		}
		seed := int64(next()<<8 | next())
		alphabet := []string{"A", "B", "C", "D"}
		l, err := gen.RandomLog(gen.LogParams{
			Instances:        8 + (next()&0xff)%9,
			MeanLength:       1 + (next()&0xff)%6,
			Alphabet:         alphabet,
			CompleteFraction: 0.7,
			Seed:             seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed))
		queries := make([]string, 3+(next()&0xff)%4+1) // the last is the late one
		for i := range queries {
			queries[i] = gen.RandomPattern(rng, gen.PatternParams{
				Operators:  rng.Intn(4),
				Alphabet:   alphabet,
				NegateProb: 0.3,
			}).String()
		}
		recs := l.Records()
		lateAt := (next() & 0xffff) % (len(recs) + 1)

		// Batches end at cuts; the late watch registers before recs[lateAt].
		var cuts []int
		for at := 0; at < len(recs); {
			end := len(recs)
			if b := next(); b >= 0 {
				end = min(end, at+1+b%24)
			}
			if at < lateAt && end > lateAt {
				end = lateAt
			}
			cuts = append(cuts, end)
			at = end
		}
		var single []int
		for i := 1; i <= len(recs); i++ {
			single = append(single, i)
		}

		batched, bm := runBatches(t, recs, queries, lateAt, cuts)
		oneByOne, om := runBatches(t, recs, queries, lateAt, single)
		if d := diffAlerts(batched, oneByOne); d != "" {
			t.Fatalf("batches %v against one record per call: %s", cuts, d)
		}
		if bm.Alerts() != om.Alerts() || bm.Alerts() != len(batched) {
			t.Fatalf("Alerts: batched %d, one by one %d, delivered %d", bm.Alerts(), om.Alerts(), len(batched))
		}
		for _, name := range bm.WatchNames() {
			if bm.FiredInstances(name) != om.FiredInstances(name) {
				t.Fatalf("FiredInstances(%s): batched %d, one by one %d", name, bm.FiredInstances(name), om.FiredInstances(name))
			}
		}

		var early []Alert
		for _, a := range batched {
			if a.Watch != "late" {
				early = append(early, a)
			}
		}
		if d := diffAlerts(early, referenceAlerts(recs, queries[:len(queries)-1])); d != "" {
			t.Fatalf("batches %v against the per-record reference: %s", cuts, d)
		}
	})
}

// runBatches ingests recs[prev cut:cut] per call, with watches w0, w1, …
// over all but the last query registered first, and the last registered as
// "late" before recs[lateAt].
func runBatches(t *testing.T, recs []wlog.Record, queries []string, lateAt int, cuts []int) ([]Alert, *Monitor) {
	t.Helper()
	var alerts []Alert
	m := NewMonitor(func(a Alert) { alerts = append(alerts, a) })
	for i, q := range queries[:len(queries)-1] {
		if err := m.Watch(fmt.Sprintf("w%d", i), q); err != nil {
			t.Fatal(err)
		}
	}
	watchLate := func(at int) {
		if at != lateAt {
			return
		}
		if err := m.Watch("late", queries[len(queries)-1]); err != nil {
			t.Fatal(err)
		}
	}
	at := 0
	for _, cut := range cuts {
		watchLate(at)
		if err := m.Ingest(recs[at:cut]...); err != nil {
			t.Fatal(err)
		}
		at = cut
	}
	watchLate(at)
	return alerts, m
}

// referenceAlerts is per-record evaluation: after each record, every watch
// that has not yet fired in the record's instance is evaluated, by
// Algorithm 1, over the version that record completed, and the record's
// instance alerts with its canonical first incident when it has one.
func referenceAlerts(recs []wlog.Record, queries []string) []Alert {
	var alerts []Alert
	fired := make(map[string]bool) // watch name + wid
	st := new(colstore.Store)
	for _, r := range recs {
		st = st.Append(r)
		ev := eval.New(st, eval.Options{Strategy: eval.StrategyNaive})
		for i, q := range queries {
			name := fmt.Sprintf("w%d", i)
			key := fmt.Sprint(name, "/", r.WID)
			if fired[key] {
				continue
			}
			if set := ev.Eval(pattern.MustParse(q)).FilterWID(r.WID); !set.IsEmpty() {
				fired[key] = true
				alerts = append(alerts, Alert{Watch: name, Query: q, WID: r.WID, LSN: r.LSN, Incident: set.At(0)})
			}
		}
	}
	return alerts
}

// diffAlerts describes the first difference between two alert sequences,
// or returns "" when they are equal.
func diffAlerts(got, want []Alert) string {
	for i := range min(len(got), len(want)) {
		g, w := got[i], want[i]
		if g.Watch != w.Watch || g.Query != w.Query || g.WID != w.WID || g.LSN != w.LSN || !g.Incident.Equal(w.Incident) {
			return fmt.Sprintf("alert %d is %v (wid %d), want %v (wid %d)", i, g, g.WID, w, w.WID)
		}
	}
	if len(got) != len(want) {
		return fmt.Sprintf("%d alerts, want %d", len(got), len(want))
	}
	return ""
}
