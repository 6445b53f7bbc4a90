package stream

import (
	"errors"
	"strings"
	"testing"

	"wlq/internal/clinic"
	"wlq/internal/core/eval"
	"wlq/internal/core/pattern"
	"wlq/internal/wlog"
)

func TestWatchRegistration(t *testing.T) {
	m := NewMonitor(nil)
	if err := m.Watch("w1", "A -> B"); err != nil {
		t.Fatal(err)
	}
	if err := m.Watch("w1", "B -> A"); !errors.Is(err, ErrDuplicateWatch) {
		t.Errorf("duplicate watch: %v", err)
	}
	if err := m.Watch("w2", "A -> "); err == nil {
		t.Error("bad query accepted")
	}
	names := m.WatchNames()
	if len(names) != 1 || names[0] != "w1" {
		t.Errorf("WatchNames = %v", names)
	}
}

func TestMonitorFiresAtExactRecord(t *testing.T) {
	var alerts []Alert
	m := NewMonitor(func(a Alert) { alerts = append(alerts, a) })
	if err := m.Watch("pair", "A -> B"); err != nil {
		t.Fatal(err)
	}

	recs := []wlog.Record{
		{LSN: 1, WID: 1, Seq: 1, Activity: wlog.ActivityStart},
		{LSN: 2, WID: 1, Seq: 2, Activity: "A"},
		{LSN: 3, WID: 2, Seq: 1, Activity: wlog.ActivityStart},
		{LSN: 4, WID: 2, Seq: 2, Activity: "B"}, // no A before: must not fire
		{LSN: 5, WID: 1, Seq: 3, Activity: "B"}, // completes A -> B in wid 1
		{LSN: 6, WID: 1, Seq: 4, Activity: "B"}, // second match: no re-alert
	}
	for _, r := range recs {
		if err := m.Ingest(r); err != nil {
			t.Fatal(err)
		}
	}
	if len(alerts) != 1 {
		t.Fatalf("alerts = %v, want exactly 1", alerts)
	}
	a := alerts[0]
	if a.WID != 1 || a.LSN != 5 || a.Watch != "pair" {
		t.Errorf("alert = %+v", a)
	}
	if !strings.Contains(a.String(), "pair") || !strings.Contains(a.String(), "lsn=5") {
		t.Errorf("Alert.String = %q", a.String())
	}
	if m.Alerts() != 1 || m.FiredInstances("pair") != 1 || m.FiredInstances("nope") != 0 {
		t.Errorf("counters wrong: %d, %d", m.Alerts(), m.FiredInstances("pair"))
	}
	if m.Records() != len(recs) {
		t.Errorf("Records = %d", m.Records())
	}
}

func TestMonitorPerInstanceAlerts(t *testing.T) {
	m := NewMonitor(nil)
	if err := m.Watch("w", "A"); err != nil {
		t.Fatal(err)
	}
	// Two instances, both eventually matching: one alert each.
	recs := []wlog.Record{
		{LSN: 1, WID: 1, Seq: 1, Activity: wlog.ActivityStart},
		{LSN: 2, WID: 2, Seq: 1, Activity: wlog.ActivityStart},
		{LSN: 3, WID: 1, Seq: 2, Activity: "A"},
		{LSN: 4, WID: 2, Seq: 2, Activity: "A"},
		{LSN: 5, WID: 2, Seq: 3, Activity: "A"},
	}
	for _, r := range recs {
		if err := m.Ingest(r); err != nil {
			t.Fatal(err)
		}
	}
	if m.FiredInstances("w") != 2 || m.Alerts() != 2 {
		t.Errorf("fired = %d, alerts = %d; want 2, 2", m.FiredInstances("w"), m.Alerts())
	}
}

// TestLateWatchStaysQuietWhereAnIncidentCameFirst: a watch registered after
// an instance already holds an incident never alerts for that instance,
// because the moment it first held one came before the watch; an instance
// that completes its first incident later alerts at the completing record.
func TestLateWatchStaysQuietWhereAnIncidentCameFirst(t *testing.T) {
	var alerts []Alert
	m := NewMonitor(func(a Alert) { alerts = append(alerts, a) })
	if err := m.Ingest(
		wlog.Record{LSN: 1, WID: 1, Seq: 1, Activity: wlog.ActivityStart},
		wlog.Record{LSN: 2, WID: 1, Seq: 2, Activity: "A"},
		wlog.Record{LSN: 3, WID: 2, Seq: 1, Activity: wlog.ActivityStart},
	); err != nil {
		t.Fatal(err)
	}
	if err := m.Watch("late", "A"); err != nil {
		t.Fatal(err)
	}
	for _, r := range []wlog.Record{
		{LSN: 4, WID: 1, Seq: 3, Activity: "A"}, // wid 1 matched before the watch
		{LSN: 5, WID: 2, Seq: 2, Activity: "B"},
		{LSN: 6, WID: 2, Seq: 3, Activity: "A"}, // wid 2's first incident
		{LSN: 7, WID: 1, Seq: 4, Activity: "B"},
	} {
		if err := m.Ingest(r); err != nil {
			t.Fatal(err)
		}
	}
	if len(alerts) != 1 || alerts[0].WID != 2 || alerts[0].LSN != 6 {
		t.Fatalf("alerts = %v, want one, for wid 2 at lsn 6", alerts)
	}
	if m.FiredInstances("late") != 1 || m.Alerts() != 1 {
		t.Errorf("fired = %d, alerts = %d; want 1, 1", m.FiredInstances("late"), m.Alerts())
	}
}

func TestIngestDiscipline(t *testing.T) {
	start := wlog.Record{LSN: 1, WID: 1, Seq: 1, Activity: wlog.ActivityStart}
	tests := []struct {
		name string
		recs []wlog.Record
		want wlog.Condition
	}{
		{
			name: "lsn gap",
			recs: []wlog.Record{start, {LSN: 3, WID: 1, Seq: 2, Activity: "A"}},
			want: wlog.CondDenseLSN,
		},
		{
			name: "lsn restart",
			recs: []wlog.Record{start, {LSN: 1, WID: 1, Seq: 2, Activity: "A"}},
			want: wlog.CondDenseLSN,
		},
		{
			name: "seq gap",
			recs: []wlog.Record{start, {LSN: 2, WID: 1, Seq: 3, Activity: "A"}},
			want: wlog.CondConsecutiveSeq,
		},
		{
			name: "first record not START",
			recs: []wlog.Record{{LSN: 1, WID: 1, Seq: 1, Activity: "A"}},
			want: wlog.CondStartFirst,
		},
		{
			name: "START mid-instance",
			recs: []wlog.Record{start, {LSN: 2, WID: 1, Seq: 2, Activity: wlog.ActivityStart}},
			want: wlog.CondStartFirst,
		},
		{
			name: "record after END",
			recs: []wlog.Record{
				start,
				{LSN: 2, WID: 1, Seq: 2, Activity: wlog.ActivityEnd},
				{LSN: 3, WID: 1, Seq: 3, Activity: "A"},
			},
			want: wlog.CondEndLast,
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			m := NewMonitor(nil)
			var err error
			for _, r := range tt.recs {
				if err = m.Ingest(r); err != nil {
					break
				}
			}
			var ve *wlog.ValidationError
			if !errors.As(err, &ve) || ve.Cond != tt.want {
				t.Errorf("err = %v, want a violation of %v", err, tt.want)
			}
		})
	}
}

// TestMonitorMatchesBatchEvaluation: after replaying a full log, the
// monitor's fired-instance counts must equal the batch evaluator's
// distinct-instance counts, and ad-hoc Query must equal batch results.
func TestMonitorMatchesBatchEvaluation(t *testing.T) {
	l, err := clinic.Generate(150, 77)
	if err != nil {
		t.Fatal(err)
	}
	queries := map[string]string{
		"anomaly":  "GetReimburse -> UpdateRefer",
		"journey":  "CheckIn -> SeeDoctor -> PayTreatment",
		"pay-pair": "SeeDoctor . PayTreatment",
	}
	m := NewMonitor(nil)
	for name, q := range queries {
		if err := m.Watch(name, q); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.IngestLog(l); err != nil {
		t.Fatal(err)
	}

	ix := eval.NewIndex(l)
	e := eval.New(ix, eval.Options{})
	for name, q := range queries {
		batch := e.Eval(pattern.MustParse(q))
		if got := m.FiredInstances(name); got != len(batch.WIDs()) {
			t.Errorf("%s: monitor fired in %d instances, batch found %d",
				name, got, len(batch.WIDs()))
		}
		streamSet, err := m.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if !streamSet.Equal(batch) {
			t.Errorf("%s: ad-hoc Query differs from batch", name)
		}
	}
	if _, err := m.Query("("); err == nil {
		t.Error("Query with syntax error: want error")
	}
}

func TestUnwatch(t *testing.T) {
	m := NewMonitor(nil)
	if err := m.Watch("w", "A"); err != nil {
		t.Fatal(err)
	}
	if !m.Unwatch("w") {
		t.Error("Unwatch(w) = false")
	}
	if m.Unwatch("w") {
		t.Error("double Unwatch = true")
	}
	if len(m.WatchNames()) != 0 {
		t.Errorf("watches left: %v", m.WatchNames())
	}
	// Re-registering the same name works after removal.
	if err := m.Watch("w", "B"); err != nil {
		t.Fatal(err)
	}
	recs := []wlog.Record{
		{LSN: 1, WID: 1, Seq: 1, Activity: wlog.ActivityStart},
		{LSN: 2, WID: 1, Seq: 2, Activity: "A"},
		{LSN: 3, WID: 1, Seq: 3, Activity: "B"},
	}
	for _, r := range recs {
		if err := m.Ingest(r); err != nil {
			t.Fatal(err)
		}
	}
	if m.FiredInstances("w") != 1 {
		t.Errorf("re-registered watch fired %d", m.FiredInstances("w"))
	}
}
