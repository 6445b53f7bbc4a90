package wlq_test

import (
	"path/filepath"
	"testing"

	"wlq"
	"wlq/internal/colstore"
)

func TestOpenLogSpecs(t *testing.T) {
	tests := []struct {
		spec      string
		wantInsts int // -1 = any positive count
	}{
		{"fig3", 3},
		{"clinic:5:7", 5},
		{"model:orders:4:1", 4},
	}
	for _, tt := range tests {
		l, err := wlq.OpenLog(tt.spec)
		if err != nil {
			t.Errorf("OpenLog(%q): %v", tt.spec, err)
			continue
		}
		if got := len(l.WIDs()); got != tt.wantInsts {
			t.Errorf("OpenLog(%q): %d instances, want %d", tt.spec, got, tt.wantInsts)
		}
	}
}

func TestOpenLogFileRoundTrip(t *testing.T) {
	l := wlq.ClinicFig3()
	path := filepath.Join(t.TempDir(), "fig3.jsonl")
	if err := wlq.SaveLog(path, l); err != nil {
		t.Fatal(err)
	}
	back, err := wlq.OpenLog(path)
	if err != nil {
		t.Fatal(err)
	}
	if !back.Equal(l) {
		t.Fatal("OpenLog(file) did not round-trip the log")
	}
}

func TestOpenLogErrors(t *testing.T) {
	for _, spec := range []string{
		"clinic:notanumber:7",
		"clinic:5",
		"model:nosuchmodel:4:1",
		"model:orders:4",
		filepath.Join(t.TempDir(), "missing.jsonl"),
	} {
		if _, err := wlq.OpenLog(spec); err == nil {
			t.Errorf("OpenLog(%q) succeeded, want error", spec)
		}
	}
}

// loadJSONL loads a log file into a store as wlq-serve loads a -log file:
// StreamLog into a colstore.Builder.
func loadJSONL(path string) (*colstore.Store, error) {
	var b colstore.Builder
	if err := wlq.StreamLog(path, b.Add); err != nil {
		return nil, err
	}
	return b.Finish()
}

// TestLoadAllocsPerRecord holds that load to at most 7 heap allocations
// per record on the benchmark's log, ClinicLog(5000): a line is read by the
// JSONL scanner, a file's names are allocated once, and a hex-like id is a
// string without a failed strconv parse.
func TestLoadAllocsPerRecord(t *testing.T) {
	l, err := wlq.ClinicLog(5000, 1)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "clinic.jsonl")
	if err := wlq.SaveLog(path, l); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(1, func() {
		if _, err := loadJSONL(path); err != nil {
			t.Fatal(err)
		}
	})
	perRecord := allocs / float64(l.Len())
	t.Logf("%d records: %.1f allocations per record", l.Len(), perRecord)
	if perRecord > 7 {
		t.Fatalf("load takes %.1f allocations per record, want ≤ 7", perRecord)
	}
}
