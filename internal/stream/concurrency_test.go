package stream

import (
	"sync"
	"testing"

	"wlq/internal/clinic"
	"wlq/internal/core/eval"
	"wlq/internal/core/pattern"
	"wlq/internal/wlog"
)

// The Monitor's concurrency contract under the race detector: one writer
// ingesting a full clinic log while readers hammer Query and the accessors
// and pin versions. A pinned version must be self-consistent and answer as
// naive Algorithm 1 over the log's first LastLSN() records, and the final
// state must match a serial ingest of the same log.
func TestMonitorConcurrentIngestQuery(t *testing.T) {
	l, err := clinic.Generate(80, 99)
	if err != nil {
		t.Fatal(err)
	}
	m := NewMonitor(nil)
	if err := m.Watch("refer", "GetRefer -> SeeDoctor"); err != nil {
		t.Fatal(err)
	}
	p := pattern.MustParse("GetRefer -> PayTreatment")
	records := l.Records()

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := m.Query("GetRefer -> PayTreatment"); err != nil {
					t.Errorf("Query: %v", err)
					return
				}
				_ = m.Alerts()
				_ = m.Records()
				_ = m.LastLSN()
				_ = m.FiredInstances("refer")
				st := m.Store()
				n := 0
				for pos := range st.WIDs() {
					n += len(st.Row(pos).Post)
				}
				if n != st.TotalRecords() || uint64(n) != st.LastLSN() {
					t.Errorf("pinned version: %d records over its instances, TotalRecords %d, LastLSN %d", n, st.TotalRecords(), st.LastLSN())
					return
				}
				want := eval.New(eval.NewIndex(wlog.MustNew(records[:n])), eval.Options{Strategy: eval.StrategyNaive}).Eval(p)
				if got := eval.New(st, eval.Options{}).Eval(p); !got.Equal(want) {
					t.Errorf("pinned version at lsn %d: %s\noracle over its prefix: %s", n, got, want)
					return
				}
			}
		}()
	}

	// The writer: the whole log, one record at a time.
	for i := 0; i < l.Len(); i++ {
		if err := m.Ingest(l.Record(i)); err != nil {
			t.Fatalf("Ingest %d: %v", i, err)
		}
	}
	close(stop)
	wg.Wait()

	// Final state must equal a serial ingest.
	serial := NewMonitor(nil)
	if err := serial.Watch("refer", "GetRefer -> SeeDoctor"); err != nil {
		t.Fatal(err)
	}
	if err := serial.IngestLog(l); err != nil {
		t.Fatal(err)
	}
	if m.Records() != serial.Records() || m.LastLSN() != serial.LastLSN() {
		t.Fatalf("concurrent state diverged: %d/%d records, lsn %d/%d",
			m.Records(), serial.Records(), m.LastLSN(), serial.LastLSN())
	}
	if m.FiredInstances("refer") != serial.FiredInstances("refer") {
		t.Fatalf("alert counts diverged: %d vs %d",
			m.FiredInstances("refer"), serial.FiredInstances("refer"))
	}
	got, err := m.Query("GetRefer -> SeeDoctor")
	if err != nil {
		t.Fatal(err)
	}
	want, err := serial.Query("GetRefer -> SeeDoctor")
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatalf("final answers diverged:\nconcurrent: %s\nserial:     %s", got, want)
	}
}

// A refused Ingest must publish nothing: offering a wrong-lsn record, again
// and again between real ingests, never changes what the next Ingest sees or
// what readers see.
func TestMonitorRefusalDoesNotMutate(t *testing.T) {
	l, err := clinic.Generate(5, 7)
	if err != nil {
		t.Fatal(err)
	}
	m := NewMonitor(nil)
	for i := 0; i < l.Len(); i++ {
		r := l.Record(i)
		bad := r
		bad.LSN += 7
		before := m.Store()
		for k := 0; k < 3; k++ {
			if err := m.Ingest(bad); err == nil {
				t.Fatalf("Ingest accepted lsn gap at record %d", i)
			}
		}
		if got := m.Store(); got.LastLSN() != before.LastLSN() || got.TotalRecords() != before.TotalRecords() {
			t.Fatalf("refused Ingest at record %d moved the store to lsn %d", i, got.LastLSN())
		}
		if err := m.Ingest(r); err != nil {
			t.Fatalf("Ingest record %d after refusals: %v", i, err)
		}
	}
}

// NewMonitorOn over a pre-loaded index must continue the lsn and seq
// sequences where the snapshot ends — the startup path of live ingestion.
func TestMonitorOnPreloadedBackend(t *testing.T) {
	l, err := clinic.Generate(10, 3)
	if err != nil {
		t.Fatal(err)
	}
	serial := NewMonitor(nil)
	if err := serial.IngestLog(l); err != nil {
		t.Fatal(err)
	}

	// Load an index with the same records, then resume.
	resumed := NewMonitorOn(nil, eval.NewIndex(l))
	if resumed.LastLSN() != serial.LastLSN() {
		t.Fatalf("resumed lsn %d, want %d", resumed.LastLSN(), serial.LastLSN())
	}
	// The next append continues the global sequence; an old lsn is refused.
	r := l.Record(l.Len() - 1)
	if err := resumed.Ingest(r); err == nil {
		t.Fatal("resumed monitor re-accepted an already-ingested record")
	}
}
