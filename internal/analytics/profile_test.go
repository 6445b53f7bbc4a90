package analytics

import (
	"strings"
	"testing"

	"wlq/internal/clinic"
	"wlq/internal/wlog"
)

func TestProfileFig3(t *testing.T) {
	p := ProfileLog(clinic.Fig3())
	if p.Records != 20 || p.Instances != 3 || p.Completed != 0 {
		t.Errorf("basics = %+v", p)
	}
	// Instance lengths in Figure 3: wid1 has 9, wid2 has 9, wid3 has 2.
	if p.MinLen != 2 || p.MaxLen != 9 {
		t.Errorf("lengths = min %d max %d", p.MinLen, p.MaxLen)
	}
	if p.MeanLen < 6.6 || p.MeanLen > 6.7 { // 20/3
		t.Errorf("mean = %g", p.MeanLen)
	}
	// All three instances overlap in the prefix.
	if p.MaxConcurrent != 3 {
		t.Errorf("MaxConcurrent = %d, want 3", p.MaxConcurrent)
	}
	if p.Switches == 0 {
		t.Error("Figure 3 is interleaved; Switches = 0")
	}
	if len(p.Activities) == 0 || p.Activities[0].Count < p.Activities[len(p.Activities)-1].Count {
		t.Errorf("activity histogram unsorted: %v", p.Activities)
	}
}

func TestProfileSerialLog(t *testing.T) {
	// Two one-activity instances, interleaved round-robin.
	var b wlog.Builder
	w1, w2 := b.Start(), b.Start()
	for _, step := range []struct {
		wid uint64
		act string
	}{{w1, "A"}, {w2, "B"}} {
		if err := b.Emit(step.wid, step.act, nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	for _, wid := range []uint64{w1, w2} {
		if err := b.End(wid); err != nil {
			t.Fatal(err)
		}
	}
	p := ProfileLog(b.MustBuild())
	if p.Completed != 2 {
		t.Errorf("Completed = %d", p.Completed)
	}
	// Every record switches instance.
	if p.Switches == 0 {
		t.Error("round-robin log reported as serial")
	}
}

func TestProfileNoInterleaving(t *testing.T) {
	var b wlog.Builder
	w1 := b.Start()
	if err := b.Emit(w1, "A", nil, nil); err != nil {
		t.Fatal(err)
	}
	if err := b.End(w1); err != nil {
		t.Fatal(err)
	}
	w2 := b.Start()
	if err := b.End(w2); err != nil {
		t.Fatal(err)
	}
	p := ProfileLog(b.MustBuild())
	if p.Switches != 1 { // exactly one switch: end of wid1 block to wid2
		t.Errorf("Switches = %d, want 1", p.Switches)
	}
	if p.MaxConcurrent != 1 {
		t.Errorf("MaxConcurrent = %d, want 1", p.MaxConcurrent)
	}
}

func TestProfileString(t *testing.T) {
	s := ProfileLog(clinic.Fig3()).String()
	for _, want := range []string{
		"records:         20",
		"instances:       3 (0 complete)",
		"max concurrent:  3",
		"SeeDoctor",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("missing %q in:\n%s", want, s)
		}
	}
}

func TestProfileStringTruncates(t *testing.T) {
	var b wlog.Builder
	w := b.Start()
	for i := 0; i < 30; i++ {
		if err := b.Emit(w, strings.Repeat("X", 3)+string(rune('A'+i)), nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	s := ProfileLog(b.MustBuild()).String()
	if !strings.Contains(s, "more") {
		t.Errorf("no truncation marker:\n%s", s)
	}
}

func TestTopActivities(t *testing.T) {
	p := ProfileLog(clinic.Fig3())
	top := p.TopActivities(3)
	if len(top) != 3 {
		t.Fatalf("TopActivities = %v", top)
	}
	for _, a := range top {
		if a == wlog.ActivityStart || a == wlog.ActivityEnd {
			t.Errorf("reserved activity %q in top list", a)
		}
	}
	// SeeDoctor (4 occurrences) must be among the top three.
	found := false
	for _, a := range top {
		if a == "SeeDoctor" {
			found = true
		}
	}
	if !found {
		t.Errorf("SeeDoctor missing from %v", top)
	}
}
