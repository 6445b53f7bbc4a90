package eval

import (
	"testing"

	"wlq/internal/wlog"
)

func TestIndexBasics(t *testing.T) {
	l := buildLog(t, []string{"A", "B", "A"}, []string{"B"})
	ix := NewIndex(l)

	wids := ix.WIDs()
	if len(wids) != 2 || wids[0] != 1 || wids[1] != 2 {
		t.Fatalf("WIDs = %v", wids)
	}
	if ix.TotalRecords() != l.Len() {
		t.Errorf("TotalRecords = %d, want %d", ix.TotalRecords(), l.Len())
	}
	if pos, ok := ix.Position(1); !ok || pos != 0 {
		t.Errorf("Position(1) = %d, %v; want 0, true", pos, ok)
	}
	if row := ix.Row(0); row.Len() != 4 { // START + 3 activities
		t.Errorf("Row(0).Len() = %d, want 4", row.Len())
	}
	if _, ok := ix.Position(99); ok {
		t.Error("Position(99) found an absent wid")
	}

	seqs := ix.ActivitySeqs(1, "A")
	if len(seqs) != 2 || seqs[0] != 2 || seqs[1] != 4 {
		t.Errorf("ActivitySeqs(1, A) = %v", seqs)
	}
	if got := ix.ActivitySeqs(99, "A"); got != nil {
		t.Errorf("ActivitySeqs on unknown wid = %v", got)
	}

	if got := ix.ActivityCount("A"); got != 2 {
		t.Errorf("ActivityCount(A) = %d", got)
	}
	if got := ix.ActivityCount(wlog.ActivityStart); got != 2 {
		t.Errorf("ActivityCount(START) = %d", got)
	}
	if got := ix.ActivityCount("nope"); got != 0 {
		t.Errorf("ActivityCount(nope) = %d", got)
	}

	rec, ok := ix.Record(1, 2)
	if !ok || rec.Activity != "A" {
		t.Errorf("Record(1,2) = %v, %v", rec, ok)
	}
	if _, ok := ix.Record(1, 0); ok {
		t.Error("Record(1,0) should miss")
	}
	if _, ok := ix.Record(1, 99); ok {
		t.Error("Record(1,99) should miss")
	}
	if _, ok := ix.Record(42, 1); ok {
		t.Error("Record on unknown wid should miss")
	}

	inst := ix.Instance(2)
	if len(inst) != 2 || !inst[0].IsStart() || inst[1].Activity != "B" {
		t.Errorf("Instance(2) = %v", inst)
	}

	acts := ix.Activities()
	want := []string{"A", "B", wlog.ActivityStart}
	if len(acts) != len(want) {
		t.Fatalf("Activities = %v", acts)
	}
	for i := range want {
		if acts[i] != want[i] {
			t.Errorf("Activities = %v, want %v", acts, want)
		}
	}
}
