package wlog

import (
	"testing"
)

// opsLog builds:
//
//	wid 1: START A B END        (complete)
//	wid 2: START B C            (incomplete)
func opsLog(t *testing.T) *Log {
	t.Helper()
	var b Builder
	w1 := b.Start()
	w2 := b.Start()
	for _, step := range []struct {
		wid uint64
		act string
	}{
		{w1, "A"}, {w2, "B"}, {w1, "B"}, {w2, "C"},
	} {
		if err := b.Emit(step.wid, step.act, nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.End(w1); err != nil {
		t.Fatal(err)
	}
	return b.MustBuild()
}

func TestActivityHistogram(t *testing.T) {
	h := ActivityHistogram(opsLog(t))
	// START×2, B×2, A×1, C×1, END×1 — descending by count, ties by name.
	if len(h) != 5 {
		t.Fatalf("histogram = %v", h)
	}
	if h[0].Count != 2 || h[1].Count != 2 {
		t.Errorf("top counts = %v", h[:2])
	}
	if h[0].Activity != "B" || h[1].Activity != "START" {
		t.Errorf("tie order = %v", h[:2])
	}
}
