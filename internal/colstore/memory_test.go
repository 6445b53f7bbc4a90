package colstore

import (
	"runtime"
	"testing"

	"wlq/internal/clinic"
)

// TestStoreMemoryPerRecord holds the served layout to its budget on the
// benchmark's log, ClinicLog(5000): once the log it was built from is
// collected, the store holds at most 0.05 heap objects and 160 bytes per
// record, so the collector's work on it does not grow with the log.
func TestStoreMemoryPerRecord(t *testing.T) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	st, n := func() (*Store, int) {
		l, err := clinic.Generate(5000, 1)
		if err != nil {
			t.Fatal(err)
		}
		return Build(l), l.Len()
	}()
	runtime.GC()
	runtime.ReadMemStats(&after)
	if st.TotalRecords() != n {
		t.Fatalf("store holds %d records, log %d", st.TotalRecords(), n)
	}
	objects := (float64(after.HeapObjects) - float64(before.HeapObjects)) / float64(n)
	bytes := (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / float64(n)
	t.Logf("%d records: %.1f B and %.4f heap objects per record", n, bytes, objects)
	if objects > 0.05 || bytes > 160 {
		t.Fatalf("store holds %.1f B and %.4f heap objects per record, want ≤ 160 B and ≤ 0.05", bytes, objects)
	}
	runtime.KeepAlive(st)
}
