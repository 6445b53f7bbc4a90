// Package stream implements continuous query evaluation over a growing
// workflow log — the runtime-monitoring use of Figure 2 of the paper, where
// the execution engine appends to the log while analysts' queries watch it.
//
// A Monitor ingests records one at a time (enforcing the Definition 2 log
// discipline incrementally), maintains the Algorithm 2 index incrementally,
// and re-evaluates registered watch patterns against only the workflow
// instance each record extends. Because incidents never span instances
// (Definition 4), that per-instance re-evaluation is exact: a new record
// can only create incidents within its own instance.
//
// Concurrency contract: a Monitor is safe for concurrent use. Ingest takes
// the write lock; Query, Validate and every accessor take the read lock.
// Callers that need a stable view across several calls (the server's query
// path reads the Source for planning, then evaluates, then caches) bracket
// them with RLock/RUnlock — the backend is immutable while the read lock is
// held, which is exactly the immutability an eval.Evaluator requires of its
// Source.
package stream

import (
	"errors"
	"fmt"
	"sync"

	"wlq/internal/core/eval"
	"wlq/internal/core/incident"
	"wlq/internal/core/pattern"
	"wlq/internal/wlog"
)

// Alert reports a watch firing: the named pattern gained its first incident
// in some workflow instance.
type Alert struct {
	// Watch is the name given at registration.
	Watch string
	// Query is the watch's pattern in textual form.
	Query string
	// WID is the workflow instance the incident occurred in.
	WID uint64
	// LSN is the log sequence number of the record that completed the
	// incident.
	LSN uint64
	// Incident is one witnessing incident (the canonical first).
	Incident incident.Incident
}

// String renders the alert for logs and CLIs.
func (a Alert) String() string {
	return fmt.Sprintf("watch %q fired at lsn=%d: %s (query %s)",
		a.Watch, a.LSN, a.Incident, a.Query)
}

// Handler receives alerts synchronously during Ingest, while the Monitor's
// write lock is held; handlers must not call back into the Monitor.
type Handler func(Alert)

// Ingestion errors.
var (
	// ErrBadLSN is returned when a record's lsn is not the next in sequence.
	ErrBadLSN = errors.New("stream: log sequence number not consecutive")
	// ErrBadSeq is returned when a record violates the per-instance
	// discipline of Definition 2 (START/is-lsn/END conditions).
	ErrBadSeq = errors.New("stream: instance sequence violation")
	// ErrDuplicateWatch is returned when a watch name is registered twice.
	ErrDuplicateWatch = errors.New("stream: duplicate watch name")
)

type watch struct {
	name  string
	query string
	p     pattern.Node
	// firedIn records instances already alerted, so each watch alerts at
	// most once per instance.
	firedIn map[uint64]struct{}
}

// Monitor incrementally evaluates watches over an append-only log.
// Safe for concurrent use; see the package comment for the lock contract.
type Monitor struct {
	mu sync.RWMutex
	// backend is the Algorithm 2 index, maintained one record at a time;
	// Append is only called while the write lock is held.
	backend *eval.Index
	ev      *eval.Evaluator
	handler Handler
	watches []*watch

	nextLSN uint64
	nextSeq map[uint64]uint64
	ended   map[uint64]struct{}
	alerts  int
}

// NewMonitor creates a Monitor over an empty index, delivering alerts to
// handler (which may be nil when only the Alerts counter and
// FiredInstances are wanted).
func NewMonitor(handler Handler) *Monitor {
	return NewMonitorOn(handler, eval.NewEmptyIndex())
}

// NewMonitorOn creates a Monitor over an existing index — typically one
// pre-loaded from a base snapshot, so live appends continue where the
// snapshot ends. nextLSN picks up after the index's newest record.
func NewMonitorOn(handler Handler, backend *eval.Index) *Monitor {
	next := uint64(1)
	nextSeq := make(map[uint64]uint64)
	ended := make(map[uint64]struct{})
	for _, wid := range backend.WIDs() {
		recs := backend.Instance(wid)
		if len(recs) == 0 {
			continue
		}
		last := recs[len(recs)-1]
		nextSeq[wid] = last.Seq + 1
		if last.IsEnd() {
			ended[wid] = struct{}{}
		}
		for _, r := range recs {
			if r.LSN >= next {
				next = r.LSN + 1
			}
		}
	}
	return &Monitor{
		backend: backend,
		ev:      eval.New(backend, eval.Options{}),
		handler: handler,
		nextLSN: next,
		nextSeq: nextSeq,
		ended:   ended,
	}
}

// Watch registers a named pattern. Watches alert at most once per workflow
// instance, at the moment the instance first contains an incident.
func (m *Monitor) Watch(name, query string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, w := range m.watches {
		if w.name == name {
			return fmt.Errorf("%w: %q", ErrDuplicateWatch, name)
		}
	}
	p, err := pattern.Parse(query)
	if err != nil {
		return err
	}
	m.watches = append(m.watches, &watch{
		name:    name,
		query:   query,
		p:       p,
		firedIn: make(map[uint64]struct{}),
	})
	return nil
}

// WatchNames returns the registered watch names in registration order.
func (m *Monitor) WatchNames() []string {
	m.mu.RLock()
	defer m.mu.RUnlock()
	names := make([]string, len(m.watches))
	for i, w := range m.watches {
		names[i] = w.name
	}
	return names
}

// validateLocked checks r against the Definition 2 discipline without
// mutating anything. Caller holds at least the read lock.
func (m *Monitor) validateLocked(r wlog.Record) error {
	if r.LSN != m.nextLSN {
		return fmt.Errorf("%w: got %d, want %d", ErrBadLSN, r.LSN, m.nextLSN)
	}
	if _, done := m.ended[r.WID]; done {
		return fmt.Errorf("%w: record after END of wid %d", ErrBadSeq, r.WID)
	}
	wantSeq := m.nextSeq[r.WID]
	if wantSeq == 0 {
		wantSeq = 1
	}
	if r.Seq != wantSeq {
		return fmt.Errorf("%w: wid %d got is-lsn %d, want %d", ErrBadSeq, r.WID, r.Seq, wantSeq)
	}
	if (r.Seq == 1) != r.IsStart() {
		return fmt.Errorf("%w: wid %d activity %q at is-lsn %d (START iff is-lsn=1)",
			ErrBadSeq, r.WID, r.Activity, r.Seq)
	}
	return nil
}

// Validate checks whether Ingest would accept r, without ingesting it. The
// answer is advisory under concurrency — another Ingest may land between
// Validate and Ingest — so the ingest coordinator calls it while externally
// serialized.
func (m *Monitor) Validate(r wlog.Record) error {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.validateLocked(r)
}

// Ingest appends one record, enforcing the log discipline, and evaluates
// every not-yet-fired watch against the record's instance.
func (m *Monitor) Ingest(r wlog.Record) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.validateLocked(r); err != nil {
		return err
	}

	m.backend.Append(r)
	m.nextLSN++
	m.nextSeq[r.WID] = r.Seq + 1
	if r.IsEnd() {
		m.ended[r.WID] = struct{}{}
	}

	for _, w := range m.watches {
		if _, fired := w.firedIn[r.WID]; fired {
			continue
		}
		set := m.ev.EvalInstance(w.p, r.WID)
		if set.Len() == 0 {
			continue
		}
		w.firedIn[r.WID] = struct{}{}
		m.alerts++
		if m.handler != nil {
			m.handler(Alert{
				Watch:    w.name,
				Query:    w.query,
				WID:      r.WID,
				LSN:      r.LSN,
				Incident: set.At(0),
			})
		}
	}
	return nil
}

// IngestLog replays an entire log through the monitor.
func (m *Monitor) IngestLog(l *wlog.Log) error {
	for i := 0; i < l.Len(); i++ {
		if err := m.Ingest(l.Record(i)); err != nil {
			return fmt.Errorf("record %d: %w", i+1, err)
		}
	}
	return nil
}

// Alerts returns how many alerts have been raised in total.
func (m *Monitor) Alerts() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.alerts
}

// FiredInstances returns how many instances the named watch has alerted
// for (0 for unknown names).
func (m *Monitor) FiredInstances(name string) int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	for _, w := range m.watches {
		if w.name == name {
			return len(w.firedIn)
		}
	}
	return 0
}

// Records returns the number of records ingested so far.
func (m *Monitor) Records() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.backend.TotalRecords()
}

// LastLSN returns the lsn of the newest ingested record (0 when empty).
func (m *Monitor) LastLSN() uint64 {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.nextLSN - 1
}

// Source exposes the backend for read-only planning and evaluation. The
// caller must hold the Monitor's read lock (RLock) for the whole time it
// reads the Source — the lock is what makes the Source "immutable" in the
// sense eval.Evaluator requires.
func (m *Monitor) Source() eval.Source { return m.backend }

// LastLSNLocked returns the watermark without acquiring the lock. The
// caller must already hold RLock: re-acquiring the read lock while holding
// it can deadlock behind a queued writer (sync.RWMutex is not reentrant).
func (m *Monitor) LastLSNLocked() uint64 { return m.nextLSN - 1 }

// RLock takes the Monitor's read lock, freezing the backend against
// appends; pair with RUnlock.
func (m *Monitor) RLock() { m.mu.RLock() }

// RUnlock releases RLock.
func (m *Monitor) RUnlock() { m.mu.RUnlock() }

// Query evaluates an ad-hoc pattern over everything ingested so far.
func (m *Monitor) Query(query string) (*incident.Set, error) {
	p, err := pattern.Parse(query)
	if err != nil {
		return nil, err
	}
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.ev.Eval(p), nil
}

// Unwatch removes a registered watch; it reports whether the name existed.
func (m *Monitor) Unwatch(name string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	for i, w := range m.watches {
		if w.name == name {
			m.watches = append(m.watches[:i], m.watches[i+1:]...)
			return true
		}
	}
	return false
}
