package wlq_test

import (
	"errors"
	"path/filepath"
	"strings"
	"testing"

	"wlq"
	"wlq/internal/core/eval"
	"wlq/internal/core/pattern"
)

func TestEngineOnFig3(t *testing.T) {
	e := wlq.NewEngine(wlq.ClinicFig3())

	set, err := e.Query("UpdateRefer -> GetReimburse")
	if err != nil {
		t.Fatal(err)
	}
	if set.Len() != 1 {
		t.Fatalf("incidents = %s, want exactly one", set)
	}
	inc := set.At(0)
	if inc.WID() != 2 || inc.First() != 5 || inc.Last() != 9 {
		t.Errorf("incident = %v, want wid 2 records {5,9}", inc)
	}

	recs := e.IncidentRecords(inc)
	if len(recs) != 2 || recs[0].LSN != 14 || recs[1].LSN != 20 {
		t.Errorf("records = %v, want l14 and l20", recs)
	}
}

func TestEngineQueryError(t *testing.T) {
	e := wlq.NewEngine(wlq.ClinicFig3())
	if _, err := e.Query("A -> "); err == nil {
		t.Error("Query with syntax error: want error")
	}
	if _, err := e.Exists("A -> "); err == nil {
		t.Error("Exists with syntax error: want error")
	}
	if _, err := e.Count("A -> "); err == nil {
		t.Error("Count with syntax error: want error")
	}
	if _, err := e.GroupByAttr("(", "x"); err == nil {
		t.Error("GroupByAttr with syntax error: want error")
	}
	if _, err := e.DistinctInstances(")"); err == nil {
		t.Error("DistinctInstances with syntax error: want error")
	}
	if _, err := e.Explain("|A"); err == nil {
		t.Error("Explain with syntax error: want error")
	}
}

func TestEngineExistsCount(t *testing.T) {
	e := wlq.NewEngine(wlq.ClinicFig3())
	ok, err := e.Exists("SeeDoctor . PayTreatment")
	if err != nil || !ok {
		t.Errorf("Exists = %v, %v", ok, err)
	}
	ok, err = e.Exists("GetReimburse -> GetRefer")
	if err != nil || ok {
		t.Errorf("Exists(reversed) = %v, %v", ok, err)
	}
	n, err := e.Count("SeeDoctor")
	if err != nil || n != 4 {
		t.Errorf("Count(SeeDoctor) = %d, %v; want 4", n, err)
	}
}

// TestEngineBudgetCoversExistsAndCount: WithBudget holds on every evaluating
// method, not only on Query.
func TestEngineBudgetCoversExistsAndCount(t *testing.T) {
	l, err := wlq.ClinicLog(200, 1)
	if err != nil {
		t.Fatal(err)
	}
	e := wlq.NewEngine(l, wlq.WithBudget(wlq.Budget{MaxComparisons: 1}))
	if ok, err := e.Exists("GetReimburse -> GetRefer"); !errors.Is(err, wlq.ErrBudgetExceeded) {
		t.Errorf("Exists under a 1-comparison budget = %v, %v; want ErrBudgetExceeded", ok, err)
	}
	if n, err := e.Count("GetRefer -> SeeDoctor -> GetReimburse"); !errors.Is(err, wlq.ErrBudgetExceeded) {
		t.Errorf("Count under a 1-comparison budget = %d, %v; want ErrBudgetExceeded", n, err)
	}
	if _, err := e.Query("GetRefer -> GetReimburse"); !errors.Is(err, wlq.ErrBudgetExceeded) {
		t.Errorf("Query under a 1-comparison budget: %v; want ErrBudgetExceeded", err)
	}
}

func TestEngineOptionsEquivalent(t *testing.T) {
	log, err := wlq.ClinicLog(60, 5)
	if err != nil {
		t.Fatal(err)
	}
	queries := []string{
		"GetRefer . CheckIn",
		"(SeeDoctor -> PayTreatment) | (SeeDoctor -> UpdateRefer)",
		"UpdateRefer & TakeTreatment",
		"GetReimburse -> UpdateRefer",
	}
	def := wlq.NewEngine(log)
	naive := wlq.NewEngine(log, wlq.WithStrategy(wlq.StrategyNaive))
	noOpt := wlq.NewEngine(log, wlq.WithoutOptimizer())
	for _, q := range queries {
		a, err := def.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		b, err := naive.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		c, err := noOpt.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if !a.Equal(b) || !a.Equal(c) {
			t.Errorf("engines disagree on %q", q)
		}
	}
}

func TestEngineGroupBy(t *testing.T) {
	log, err := wlq.ClinicLog(150, 9)
	if err != nil {
		t.Fatal(err)
	}
	e := wlq.NewEngine(log)

	byYear, err := e.GroupByAttr("GetRefer[balance>5000]", "year")
	if err != nil {
		t.Fatal(err)
	}
	if byYear.Total() == 0 {
		t.Error("no high-balance referrals found in 150 instances")
	}
	for _, k := range byYear.Keys() {
		if len(k) != 4 || !strings.HasPrefix(k, "201") {
			t.Errorf("unexpected year key %q", k)
		}
	}

	byHospital, err := e.GroupByInstanceAttr("GetReimburse -> UpdateRefer", "hospital")
	if err != nil {
		t.Fatal(err)
	}
	anomalies, err := e.Count("GetReimburse -> UpdateRefer")
	if err != nil {
		t.Fatal(err)
	}
	if byHospital.Total() != anomalies {
		t.Errorf("hospital grouping total %d != anomaly count %d", byHospital.Total(), anomalies)
	}

	students, err := e.DistinctInstances("GetRefer")
	if err != nil {
		t.Fatal(err)
	}
	if students != 150 {
		t.Errorf("DistinctInstances(GetRefer) = %d, want 150", students)
	}
}

func TestEngineExplain(t *testing.T) {
	e := wlq.NewEngine(wlq.ClinicFig3())
	out, err := e.Explain("(SeeDoctor -> PayTreatment) | (SeeDoctor -> UpdateRefer)")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"incident tree", "sequential", "optimized:", "estimated cost", "≺"} {
		if !strings.Contains(out, want) {
			t.Errorf("Explain missing %q:\n%s", want, out)
		}
	}
	plain, err := wlq.NewEngine(wlq.ClinicFig3(), wlq.WithoutOptimizer()).Explain("SeeDoctor")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plain, "optimizer off") {
		t.Errorf("Explain without optimizer: %s", plain)
	}
}

func TestLoadSaveRoundTrip(t *testing.T) {
	dir := t.TempDir()
	log, err := wlq.ClinicLog(10, 2)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "clinic.jsonl")
	if err := wlq.SaveLog(path, log); err != nil {
		t.Fatal(err)
	}
	back, err := wlq.LoadLog(path)
	if err != nil {
		t.Fatal(err)
	}
	if !log.Equal(back) {
		t.Error("round trip mismatch")
	}
}

func TestBuildLogThroughFacade(t *testing.T) {
	var b wlq.Builder
	w := b.Start()
	if err := b.Emit(w, "Ship", wlq.Attrs("order", "o-1"), nil); err != nil {
		t.Fatal(err)
	}
	if err := b.End(w); err != nil {
		t.Fatal(err)
	}
	log, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	e := wlq.NewEngine(log)
	n, err := e.Count("Ship")
	if err != nil || n != 1 {
		t.Errorf("Count = %d, %v", n, err)
	}
}

func TestParsePatternAndTree(t *testing.T) {
	p, err := wlq.ParsePattern("A -> (B & C)")
	if err != nil {
		t.Fatal(err)
	}
	tree := wlq.PatternTree(p)
	if !strings.Contains(tree, "parallel") || !strings.Contains(tree, "sequential") {
		t.Errorf("PatternTree = %s", tree)
	}
	if _, err := wlq.ParsePattern("->"); err == nil {
		t.Error("ParsePattern on junk: want error")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustParsePattern on junk should panic")
		}
	}()
	wlq.MustParsePattern("->")
}

func TestNewLogValidates(t *testing.T) {
	if _, err := wlq.NewLog([]wlq.Record{{LSN: 1, WID: 1, Seq: 1, Activity: "NotStart"}}); err == nil {
		t.Error("NewLog on invalid records: want error")
	}
}

func TestBindIncident(t *testing.T) {
	e := wlq.NewEngine(wlq.ClinicFig3())
	set, err := e.Query("SeeDoctor -> (UpdateRefer -> GetReimburse)")
	if err != nil {
		t.Fatal(err)
	}
	if set.Len() != 1 {
		t.Fatalf("set = %s", set)
	}
	bindings, err := e.BindIncident("SeeDoctor -> (UpdateRefer -> GetReimburse)", set.At(0))
	if err != nil {
		t.Fatal(err)
	}
	if len(bindings) != 3 {
		t.Fatalf("bindings = %v", bindings)
	}
	want := []struct {
		atom string
		seq  uint64
	}{{"SeeDoctor", 4}, {"UpdateRefer", 5}, {"GetReimburse", 9}}
	for i, w := range want {
		if bindings[i].Atom != w.atom || bindings[i].Seq != w.seq || bindings[i].Index != i {
			t.Errorf("binding %d = %+v, want %v@%d", i, bindings[i], w.atom, w.seq)
		}
	}

	// Choice queries bind only the taken branch.
	set2, err := e.Query("CompleteRefer | TakeTreatment")
	if err != nil {
		t.Fatal(err)
	}
	for _, inc := range set2.Incidents() {
		bs, err := e.BindIncident("CompleteRefer | TakeTreatment", inc)
		if err != nil {
			t.Fatal(err)
		}
		if len(bs) != 1 {
			t.Errorf("choice bindings = %v", bs)
		}
	}

	// Errors: bad query; non-incident.
	if _, err := e.BindIncident("(", set.At(0)); err == nil {
		t.Error("BindIncident with bad query: want error")
	}
	if _, err := e.BindIncident("GetRefer", set.At(0)); err == nil {
		t.Error("BindIncident with non-incident: want error")
	}
}

func TestInstancesMatchingAndWithout(t *testing.T) {
	log, err := wlq.ClinicLog(300, 4)
	if err != nil {
		t.Fatal(err)
	}
	e := wlq.NewEngine(log)

	matching, err := e.InstancesMatching("GetReimburse")
	if err != nil {
		t.Fatal(err)
	}
	if len(matching) == 0 {
		t.Fatal("no reimbursed instances")
	}
	for i := 1; i < len(matching); i++ {
		if matching[i-1] >= matching[i] {
			t.Fatal("InstancesMatching not ascending")
		}
	}

	// Reimbursed without ever paying: possible in the model (visit loop may
	// take only UpdateRefer branches), and by construction every returned
	// instance must have a GetReimburse and no PayTreatment.
	odd, err := e.InstancesWithout("GetReimburse", "PayTreatment")
	if err != nil {
		t.Fatal(err)
	}
	for _, wid := range odd {
		n, err := e.Count("PayTreatment")
		if err != nil {
			t.Fatal(err)
		}
		_ = n
		set, err := e.Query("PayTreatment")
		if err != nil {
			t.Fatal(err)
		}
		for _, inc := range set.Incidents() {
			if inc.WID() == wid {
				t.Fatalf("wid %d returned by InstancesWithout but pays", wid)
			}
		}
	}
	// Consistency: matching = without(lack) ∪ (matching ∩ lacking).
	withPay, err := e.InstancesWithout("GetReimburse", "NoSuchActivity")
	if err != nil {
		t.Fatal(err)
	}
	if len(withPay) != len(matching) {
		t.Errorf("InstancesWithout(nonexistent) = %d ids, want all %d", len(withPay), len(matching))
	}

	if _, err := e.InstancesMatching("("); err == nil {
		t.Error("InstancesMatching syntax error: want error")
	}
	if _, err := e.InstancesWithout("(", "A"); err == nil {
		t.Error("InstancesWithout bad have: want error")
	}
	if _, err := e.InstancesWithout("A", "("); err == nil {
		t.Error("InstancesWithout bad lack: want error")
	}
}

func TestIncidentSetAlgebraThroughFacade(t *testing.T) {
	e := wlq.NewEngine(wlq.ClinicFig3())
	all, err := e.Query("SeeDoctor")
	if err != nil {
		t.Fatal(err)
	}
	wid2, err := e.Query("SeeDoctor & UpdateRefer")
	if err != nil {
		t.Fatal(err)
	}
	_ = wid2
	// Set operations are available directly on IncidentSet.
	inter := all.Intersect(all)
	if !inter.Equal(all) {
		t.Error("A ∩ A != A")
	}
	if diff := all.Difference(all); diff.Len() != 0 {
		t.Errorf("A \\ A = %s", diff)
	}
}

func TestDurationsThroughFacade(t *testing.T) {
	log, err := wlq.ClinicLogTimed(50, 6)
	if err != nil {
		t.Fatal(err)
	}
	e := wlq.NewEngine(log)
	st, err := e.Durations("GetRefer -> GetReimburse")
	if err != nil {
		t.Fatal(err)
	}
	if st.Counted == 0 || st.Mean <= 0 {
		t.Errorf("stats = %+v", st)
	}
	if _, err := e.Durations("("); err == nil {
		t.Error("Durations syntax error: want error")
	}
	// Unstamped logs produce skips, not failures.
	plain := wlq.NewEngine(wlq.ClinicFig3())
	st2, err := plain.Durations("SeeDoctor")
	if err != nil {
		t.Fatal(err)
	}
	if st2.Counted != 0 || st2.Skipped == 0 {
		t.Errorf("unstamped stats = %+v", st2)
	}
}

// TestEngineColumnarEquivalent: the engine answers from the columnar store;
// every answer must be naive Algorithm 1's over the row index.
func TestEngineColumnarEquivalent(t *testing.T) {
	log, err := wlq.ClinicLog(60, 9)
	if err != nil {
		t.Fatal(err)
	}
	e := wlq.NewEngine(log)
	oracle := eval.New(eval.NewIndex(log), eval.Options{Strategy: eval.StrategyNaive})
	for _, q := range []string{
		"GetRefer . CheckIn",
		"(SeeDoctor -> PayTreatment) | (SeeDoctor -> UpdateRefer)",
		"UpdateRefer & TakeTreatment",
		"!SeeDoctor . END",
	} {
		want := oracle.Eval(pattern.MustParse(q))
		got, err := e.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Errorf("engine disagrees with the oracle on %q:\noracle: %s\nengine: %s", q, want, got)
		}
		n, err := e.Count(q)
		if err != nil {
			t.Fatal(err)
		}
		if n != want.Len() {
			t.Errorf("Count(%q) = %d, oracle %d", q, n, want.Len())
		}
	}
}
