// Package stream implements continuous query evaluation over a growing
// workflow log — the runtime-monitoring use of Figure 2 of the paper, where
// the execution engine appends to the log while analysts' queries watch it.
//
// A Monitor ingests a batch of records by checking it once with wlog.Check,
// the one Definition 2 check, against the version it extends, appending the
// accepted prefix to its colstore.Store copy on write as one new version,
// and then evaluating each registered watch once on each workflow instance
// the batch extends, over that version. Because incidents never span
// instances (Definition 4) and an append changes no earlier record, an
// instance's incidents only grow, so that per-instance evaluation is exact:
// the record that first completed an incident is the smallest last(o) over
// the instance's incidents, whether it arrived alone or in a batch.
//
// Concurrency contract: a Monitor is safe for concurrent use. Each Ingest
// call publishes one new store version through an atomic pointer; readers —
// Query, Records, LastLSN, Store — load the current version and read it
// without a lock, and a version never changes once published, which is the
// immutability an eval.Evaluator requires of its Source. Writer state
// (watches and alerts) is under a mutex, which also serializes Ingest.
package stream

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"
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
	// instance's first incident: the record whose is-lsn is the smallest
	// last(o) over the instance's incidents.
	LSN uint64
	// Incident is the canonical first of the incidents that record
	// completed.
	Incident incident.Incident
}

// String renders the alert for logs and CLIs.
func (a Alert) String() string {
	return fmt.Sprintf("watch %q fired at lsn=%d: %s (query %s)", a.Watch, a.LSN, a.Incident, a.Query)
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
	fired int // instances alerted for
}

// Monitor evaluates watches over an append-only log, batch by batch.
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
	m := &Monitor{handler: handler}
	m.cur.Store(new(colstore.Store))
	return m
}

// NewMonitorOn creates a Monitor over an existing index's records, so live
// appends continue where that log ends. The store is all wlog.Check needs to
// check what follows it: its newest lsn, and each instance's last record.
func NewMonitorOn(handler Handler, ix *eval.Index) *Monitor {
	var recs []wlog.Record
	for _, wid := range ix.WIDs() {
		recs = append(recs, ix.Instance(wid)...)
	}
	m := NewMonitor(handler)
	m.cur.Store(m.Store().Append(recs...))
	return m
}

// Watch registers a named pattern. A watch alerts at most once per workflow
// instance, at the moment the instance first contains an incident; an
// instance that already held one when the watch was registered stays quiet.
func (m *Monitor) Watch(name, query string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.find(name) >= 0 {
		return fmt.Errorf("%w: %q", ErrDuplicateWatch, name)
	}
	p, err := pattern.Parse(query)
	if err != nil {
		return err
	}
	m.watches = append(m.watches, &watch{name: name, query: query, p: p})
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

// Ingest appends records in order as one new version, then evaluates each
// watch once on the instances they extend and delivers the alerts in lsn
// order (ties in registration order), as ingesting them one per call would.
// At the first record wlog.Check refuses it stops and returns the refusal (a
// *wlog.ValidationError); the records before it stay ingested.
func (m *Monitor) Ingest(recs ...wlog.Record) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	prev := m.cur.Load()
	n, err := wlog.Check(prev, recs)
	st := prev.Append(recs[:n]...)
	m.cur.Store(st)
	var wids []uint64 // the instances recs[:n] extend, each at its first record there
	for _, r := range recs[:n] {
		if last, _ := prev.InstanceTail(r.WID); len(m.watches) > 0 && r.Seq == last+1 {
			wids = append(wids, r.WID)
		}
	}
	slices.Sort(wids)
	var alerts []Alert
	for _, w := range m.watches {
		alerts = w.fire(alerts, prev, st, wids)
	}
	slices.SortStableFunc(alerts, func(a, b Alert) int { return cmp.Compare(a.LSN, b.LSN) })
	m.alerts += len(alerts)
	for _, a := range alerts {
		if m.handler != nil {
			m.handler(a)
		}
	}
	return err
}

// fire evaluates w on the instances wids of version st and appends an alert
// for each whose first incident came after prev. An instance's incidents
// only grow, so that is the record completing the smallest last(o), and the
// alert names the canonical first incident it completed.
func (w *watch) fire(alerts []Alert, prev, st *colstore.Store, wids []uint64) []Alert {
	a, err := eval.New(st, eval.Options{}).AnswerCtx(context.TODO(), w.p, wids, 1, eval.ShapeIncidents, nil)
	if err = a.Strict(err); err != nil {
		panic(err) // an instance panicked: no budget or cancel can fail the scan
	}
	incs := slices.Concat(a.Incidents...)
	for i, j := 0, 0; i < len(incs); i = j {
		// incs[i:j] are one instance's incidents, in canonical order.
		for j = i; j < len(incs) && incs[j].WID() == incs[i].WID(); j++ {
		}
		o := slices.MinFunc(incs[i:j], func(x, y incident.Incident) int { return cmp.Compare(x.Last(), y.Last()) })
		if last, _ := prev.InstanceTail(o.WID()); o.Last() <= last {
			continue // completed before this batch: alerted, or not yet watched
		}
		done, _ := st.Record(o.WID(), o.Last())
		w.fired++
		alerts = append(alerts, Alert{Watch: w.name, Query: w.query, WID: o.WID(), LSN: done.LSN, Incident: incident.Adopt(o.WID(), o.Seqs())})
	}
	return alerts
}

// IngestLog replays an entire log through the monitor.
func (m *Monitor) IngestLog(l *wlog.Log) error { return m.Ingest(l.Records()...) }

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
	if i := m.find(name); i >= 0 {
		return m.watches[i].fired
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
	i := m.find(name)
	if i >= 0 {
		m.watches = slices.Delete(m.watches, i, i+1)
	}
	return i >= 0
}

// find returns the index of the named watch, or -1.
func (m *Monitor) find(name string) int {
	return slices.IndexFunc(m.watches, func(w *watch) bool { return w.name == name })
}
