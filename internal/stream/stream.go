// Package stream implements continuous query evaluation over a growing
// workflow log — the runtime-monitoring use of Figure 2 of the paper, where
// the execution engine appends to the log while analysts' queries watch it.
//
// A Monitor ingests records (checking them with wlog.Check, the one
// Definition 2 check, against the version they extend), appends them to its
// colstore.Store copy on write, and re-evaluates registered watch patterns
// against only the workflow instance each record extends. Because incidents
// never span instances (Definition 4), that per-instance re-evaluation is
// exact: a new record can only create incidents within its own instance.
//
// Concurrency contract: a Monitor is safe for concurrent use. Each Ingest
// call publishes one new store version through an atomic pointer; readers —
// Query, Records, LastLSN, Store — load the current version and read it
// without a lock, and a version never changes once published, which is the
// immutability an eval.Evaluator requires of its Source. Writer state
// (watches and alerts) is under a mutex, which also serializes Ingest.
package stream

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"wlq/internal/colstore"
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
// writer lock is held; handlers must not call back into the Monitor.
type Handler func(Alert)

// ErrDuplicateWatch is returned when a watch name is registered twice.
var ErrDuplicateWatch = errors.New("stream: duplicate watch name")

type watch struct {
	name  string
	query string
	p     pattern.Node
	// firedIn records instances already alerted, so each watch alerts at
	// most once per instance.
	firedIn map[uint64]struct{}
}

// Monitor incrementally evaluates watches over an append-only log.
// Safe for concurrent use; see the package comment for the contract.
type Monitor struct {
	// cur is the published version: every read loads it once.
	cur atomic.Pointer[colstore.Store]

	mu      sync.Mutex // writer state below
	handler Handler
	watches []*watch
	alerts  int
}

// NewMonitor creates a Monitor over an empty log, delivering alerts to
// handler (which may be nil when only the Alerts counter and FiredInstances
// are wanted).
func NewMonitor(handler Handler) *Monitor {
	return newMonitor(handler, new(colstore.Store))
}

// NewMonitorOn creates a Monitor over an existing index's records, so live
// appends continue where that log ends.
func NewMonitorOn(handler Handler, ix *eval.Index) *Monitor {
	var recs []wlog.Record
	for _, wid := range ix.WIDs() {
		recs = append(recs, ix.Instance(wid)...)
	}
	return newMonitor(handler, new(colstore.Store).Append(recs...))
}

// newMonitor publishes st. The store is all wlog.Check needs to check what
// follows it: its newest lsn, and each instance's last record.
func newMonitor(handler Handler, st *colstore.Store) *Monitor {
	m := &Monitor{handler: handler}
	m.cur.Store(st)
	return m
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
	m.mu.Lock()
	defer m.mu.Unlock()
	names := make([]string, len(m.watches))
	for i, w := range m.watches {
		names[i] = w.name
	}
	return names
}

// Ingest appends records in order, evaluates every not-yet-fired watch
// against each record's instance, and publishes one new version. At the
// first record wlog.Check refuses it stops and returns the refusal (a
// *wlog.ValidationError); the records before it stay ingested.
func (m *Monitor) Ingest(recs ...wlog.Record) error {
	_, err := m.ingest(recs)
	return err
}

// IngestLog replays an entire log through the monitor.
func (m *Monitor) IngestLog(l *wlog.Log) error {
	n, err := m.ingest(l.Records())
	if err != nil {
		return fmt.Errorf("record %d: %w", n+1, err)
	}
	return nil
}

// ingest is Ingest, reporting how many records it applied. Without watches
// the accepted records are appended in one go, so loading a log is linear
// in it; a watch needs the version after each record.
func (m *Monitor) ingest(recs []wlog.Record) (int, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	st := m.cur.Load()
	n, err := wlog.Check(st, recs)
	if len(m.watches) == 0 {
		m.cur.Store(st.Append(recs[:n]...))
		return n, err
	}
	for _, r := range recs[:n] {
		// A watch is evaluated over the version r completed, against r's
		// instance only.
		st = st.Append(r)
		ev := eval.New(st, eval.Options{})
		for _, w := range m.watches {
			if _, fired := w.firedIn[r.WID]; fired {
				continue
			}
			set := ev.EvalInstance(w.p, r.WID)
			if set.Len() == 0 {
				continue
			}
			w.firedIn[r.WID] = struct{}{}
			m.alerts++
			if m.handler != nil {
				m.handler(Alert{Watch: w.name, Query: w.query, WID: r.WID, LSN: r.LSN, Incident: set.At(0)})
			}
		}
	}
	m.cur.Store(st)
	return n, err
}

// Alerts returns how many alerts have been raised in total.
func (m *Monitor) Alerts() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.alerts
}

// FiredInstances returns how many instances the named watch has alerted
// for (0 for unknown names).
func (m *Monitor) FiredInstances(name string) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, w := range m.watches {
		if w.name == name {
			return len(w.firedIn)
		}
	}
	return 0
}

// Store returns the current version: everything ingested so far, immutable,
// read without a lock however long the caller holds it.
func (m *Monitor) Store() *colstore.Store { return m.cur.Load() }

// Records returns the number of records ingested so far.
func (m *Monitor) Records() int { return m.Store().TotalRecords() }

// LastLSN returns the lsn of the newest ingested record (0 when empty).
func (m *Monitor) LastLSN() uint64 { return m.Store().LastLSN() }

// Query evaluates an ad-hoc pattern over everything ingested so far.
func (m *Monitor) Query(query string) (*incident.Set, error) {
	p, err := pattern.Parse(query)
	if err != nil {
		return nil, err
	}
	return eval.New(m.Store(), eval.Options{}).Eval(p), nil
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
