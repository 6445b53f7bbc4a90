package analytics

import (
	"strings"
	"testing"

	"wlq/internal/clinic"
	"wlq/internal/core/eval"
	"wlq/internal/core/incident"
	"wlq/internal/core/pattern"
	"wlq/internal/wlog"
)

// yearLog builds a log of GetRefer instances across two years with varying
// balances.
func yearLog(t *testing.T) *wlog.Log {
	t.Helper()
	var b wlog.Builder
	type ref struct {
		year    int64
		balance int64
	}
	refs := []ref{
		{2016, 6000}, {2016, 1000}, {2017, 7000}, {2017, 8000}, {2017, 400},
	}
	for _, r := range refs {
		w := b.Start()
		if err := b.Emit(w, "GetRefer", nil, wlog.Attrs("year", r.year, "balance", r.balance)); err != nil {
			t.Fatal(err)
		}
		if err := b.Emit(w, "CheckIn", wlog.Attrs("balance", r.balance), nil); err != nil {
			t.Fatal(err)
		}
		if err := b.End(w); err != nil {
			t.Fatal(err)
		}
	}
	return b.MustBuild()
}

func TestReportBasics(t *testing.T) {
	r := NewReport()
	if r.Len() != 0 || r.Total() != 0 {
		t.Error("empty report not empty")
	}
	r.Add("b", 2)
	r.Add("a", 1)
	r.Add("b", 3)
	if r.Count("b") != 5 || r.Count("a") != 1 || r.Count("zzz") != 0 {
		t.Errorf("counts wrong: %v", r)
	}
	if r.Total() != 6 || r.Len() != 2 {
		t.Errorf("Total/Len = %d/%d", r.Total(), r.Len())
	}
	keys := r.Keys()
	if len(keys) != 2 || keys[0] != "a" || keys[1] != "b" {
		t.Errorf("Keys = %v", keys)
	}
	if got := r.String(); got != "a: 1\nb: 5\n" {
		t.Errorf("String = %q", got)
	}
}

// TestMotivatingYearlyQuery answers the Section 1 question end to end:
// "How many students every year get referrals with balance > 5000?"
func TestMotivatingYearlyQuery(t *testing.T) {
	l := yearLog(t)
	ix := eval.NewIndex(l)
	set := eval.EvalSet(ix, pattern.MustParse("GetRefer[balance>5000]"))
	report := GroupBy(set, ByAttr(ix, "year"))
	if report.Count("2016") != 1 || report.Count("2017") != 2 {
		t.Errorf("yearly counts = %s", report)
	}
	if report.Total() != 3 {
		t.Errorf("Total = %d, want 3", report.Total())
	}
}

func TestGroupByExcludesKeylessIncidents(t *testing.T) {
	l := yearLog(t)
	ix := eval.NewIndex(l)
	// CheckIn records carry no year attribute of their own (only balance in
	// αin), so ByAttr(year) excludes them all.
	set := eval.EvalSet(ix, pattern.MustParse("CheckIn"))
	report := GroupBy(set, ByAttr(ix, "year"))
	if report.Total() != 0 {
		t.Errorf("keyless incidents grouped: %s", report)
	}
	// ByInstanceAttr falls back to the instance's records and finds it.
	report = GroupBy(set, ByInstanceAttr(ix, "year"))
	if report.Total() != 5 {
		t.Errorf("ByInstanceAttr total = %d, want 5", report.Total())
	}
}

func TestDistinctInstances(t *testing.T) {
	set := incident.NewSet(
		incident.New(1, 2), incident.New(1, 4), incident.New(3, 2),
	)
	if got := DistinctInstances(set); got != 2 {
		t.Errorf("DistinctInstances = %d, want 2", got)
	}
}

func TestRecordsMaterialization(t *testing.T) {
	ix := eval.NewIndex(clinic.Fig3())
	recs := Records(ix, incident.New(2, 5, 9))
	if len(recs) != 2 {
		t.Fatalf("Records = %v", recs)
	}
	if recs[0].Activity != clinic.ActUpdateRefer || recs[1].Activity != clinic.ActGetReimburse {
		t.Errorf("activities = %s, %s", recs[0].Activity, recs[1].Activity)
	}
	if recs[0].LSN != 14 || recs[1].LSN != 20 {
		t.Errorf("lsns = %d, %d (want the paper's l14, l20)", recs[0].LSN, recs[1].LSN)
	}
}

// TestClinicAnomalyReport ties the pieces together on generated data: count
// post-reimbursement updates per hospital.
func TestClinicAnomalyReport(t *testing.T) {
	l, err := clinic.Generate(300, 19)
	if err != nil {
		t.Fatal(err)
	}
	ix := eval.NewIndex(l)
	anomalies := eval.EvalSet(ix, pattern.MustParse("GetReimburse -> UpdateRefer"))
	if anomalies.Len() == 0 {
		t.Fatal("no planted anomalies in 300 instances")
	}
	byHospital := GroupBy(anomalies, ByInstanceAttr(ix, "hospital"))
	if byHospital.Total() != anomalies.Len() {
		t.Errorf("hospital grouping lost incidents: %d vs %d",
			byHospital.Total(), anomalies.Len())
	}
	for _, key := range byHospital.Keys() {
		if !strings.Contains(key, "Hospital") {
			t.Errorf("unexpected hospital key %q", key)
		}
	}
}
