// Package flightrec is the query flight recorder: a bounded, concurrency-
// safe record of recent query executions, kept so an operator can inspect
// what the engine actually did — full span tree, measured-vs-predicted cost
// table, plan, backend, outcome — after the fact, without having asked for
// a trace up front.
//
// The recorder holds two fixed-size rings sharing one id sequence. Every
// execution lands in the recent ring; slow and failed (error, budget-
// tripped, panicked, timed-out, partial) executions additionally land in
// the notable ring, so a flood of fast healthy traffic cannot evict the one
// capture that explains an incident. Lookups merge both rings and
// deduplicate by id.
//
// Captures are immutable once recorded: Record copies the value, and
// readers receive pointers into the rings that they must not mutate.
package flightrec

import (
	"sort"
	"sync"
	"time"

	"wlq/internal/cluster"
	"wlq/internal/obs"
)

// DefaultSize is the per-ring capacity used when a size of 0 is requested.
const DefaultSize = 256

// Status classifies how an execution ended.
type Status string

const (
	// StatusOK is a successful, complete answer.
	StatusOK Status = "ok"
	// StatusPartial is an answer that excluded wids (HTTP 206), or its
	// strict-mode refusal on a coordinator (HTTP 502).
	StatusPartial Status = "partial"
	// StatusBudget is a query stopped by its resource budget (HTTP 422).
	StatusBudget Status = "budget"
	// StatusPanic is a query aborted by a recovered evaluator panic.
	StatusPanic Status = "panic"
	// StatusTimeout is a query that exceeded its deadline (HTTP 504).
	StatusTimeout Status = "timeout"
	// StatusError is any other failure, including parse and plan errors.
	StatusError Status = "error"
)

// Capture is one recorded query execution.
type Capture struct {
	// ID is the recorder-assigned sequence number, unique per recorder.
	ID uint64 `json:"id"`
	// Time is when the execution finished.
	Time time.Time `json:"time"`
	// Log and Generation identify the log snapshot queried; captures from
	// before and after a hot reload carry different generations.
	Log        string `json:"log,omitempty"`
	Generation uint64 `json:"generation"`
	// IngestLSN is the live log's applied high-water mark at evaluation
	// time (0 for static logs): under live ingestion the generation alone
	// no longer pins the data a capture saw, the watermark does.
	IngestLSN uint64 `json:"ingest_lsn,omitempty"`
	// Query is the pattern as submitted; Canonical its cache key form.
	Query     string `json:"query"`
	Canonical string `json:"canonical,omitempty"`
	// Plan is the optimized pattern the evaluator ran.
	Plan string `json:"plan,omitempty"`
	// Status classifies the outcome; HTTPStatus is the code returned.
	Status     Status `json:"status"`
	HTTPStatus int    `json:"http_status,omitempty"`
	// Error is the failure detail for non-ok statuses.
	Error string `json:"error,omitempty"`
	// ElapsedUS is the wall time of the execution in microseconds.
	ElapsedUS int64 `json:"elapsed_us"`
	// Slow marks executions over the server's slow-query threshold.
	Slow bool `json:"slow,omitempty"`
	// Cached marks answers served from the result cache (no evaluation ran,
	// so Trace carries no eval spans).
	Cached bool `json:"cached,omitempty"`
	// Trace is the full observability trace — span tree and cost table —
	// captured whether or not the client requested one.
	Trace *obs.QueryTrace `json:"trace,omitempty"`
	// Completeness reports the coverage of a partial or distributed
	// execution.
	Completeness *cluster.Completeness `json:"completeness,omitempty"`
	// Workers is the cluster fan-out of a distributed execution — fleet-level
	// counts plus structured per-worker detail (nil for local ones).
	Workers *cluster.Fanout `json:"workers,omitempty"`
}

// Notable reports whether the capture earns a slot in the notable ring:
// anything slow or not plainly successful.
func (c *Capture) Notable() bool {
	return c.Slow || (c.Status != StatusOK && c.Status != "")
}

// Filter selects captures in List. The zero Filter matches everything.
type Filter struct {
	// Status keeps only captures with this status ("" keeps all).
	Status Status
	// Log keeps only captures of this log ("" keeps all).
	Log string
	// MinElapsed keeps only captures at least this slow.
	MinElapsed time.Duration
	// SlowOnly keeps only captures marked slow.
	SlowOnly bool
	// Worker keeps only distributed captures that touched this worker
	// (matched against the per-worker detail; "" keeps all).
	Worker string
	// Limit caps the result length (0 means no cap beyond ring capacity).
	Limit int
}

func (f Filter) match(c *Capture) bool {
	if f.Status != "" && c.Status != f.Status {
		return false
	}
	if f.Log != "" && c.Log != f.Log {
		return false
	}
	if f.MinElapsed > 0 && time.Duration(c.ElapsedUS)*time.Microsecond < f.MinElapsed {
		return false
	}
	if f.SlowOnly && !c.Slow {
		return false
	}
	if f.Worker != "" {
		if c.Workers == nil {
			return false
		}
		found := false
		for _, d := range c.Workers.PerWorker {
			if d.Worker == f.Worker {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// Recorder is the bounded capture store. The zero value is not usable;
// build one with New. A nil *Recorder is valid and drops every capture, so
// callers can record unconditionally.
type Recorder struct {
	mu       sync.RWMutex
	size     int
	seq      uint64
	captured uint64
	recent   ring
	notable  ring
}

// ring is a fixed-capacity overwrite-oldest buffer.
type ring struct {
	buf []*Capture
	pos int // next write slot
}

func (r *ring) add(c *Capture) {
	r.buf[r.pos] = c
	r.pos = (r.pos + 1) % len(r.buf)
}

// New builds a recorder holding size captures per ring (recent + notable).
// size 0 means DefaultSize; negative sizes are treated as 1.
func New(size int) *Recorder {
	if size == 0 {
		size = DefaultSize
	}
	if size < 1 {
		size = 1
	}
	return &Recorder{
		size:    size,
		recent:  ring{buf: make([]*Capture, size)},
		notable: ring{buf: make([]*Capture, size)},
	}
}

// Record stores a capture, assigns it the next id, and returns that id.
// The capture value is copied; the caller may reuse c. A nil recorder
// returns 0 and stores nothing.
func (r *Recorder) Record(c Capture) uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.seq++
	r.captured++
	c.ID = r.seq
	stored := &c
	r.recent.add(stored)
	if stored.Notable() {
		r.notable.add(stored)
	}
	return c.ID
}

// List returns the captures matching f, newest first. Captures present in
// both rings appear once.
func (r *Recorder) List(f Filter) []*Capture {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	seen := make(map[uint64]*Capture, 2*r.size)
	for _, ring := range []ring{r.recent, r.notable} {
		for _, c := range ring.buf {
			if c != nil {
				seen[c.ID] = c
			}
		}
	}
	r.mu.RUnlock()
	out := make([]*Capture, 0, len(seen))
	for _, c := range seen {
		if f.match(c) {
			out = append(out, c)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID > out[j].ID })
	if f.Limit > 0 && len(out) > f.Limit {
		out = out[:f.Limit]
	}
	return out
}

// Get returns the capture with the given id, or (nil, false) when it has
// been evicted or never existed.
func (r *Recorder) Get(id uint64) (*Capture, bool) {
	if r == nil {
		return nil, false
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	for _, ring := range []ring{r.recent, r.notable} {
		for _, c := range ring.buf {
			if c != nil && c.ID == id {
				return c, true
			}
		}
	}
	return nil, false
}

// Len reports how many distinct captures are currently held.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	seen := make(map[uint64]struct{}, 2*r.size)
	for _, ring := range []ring{r.recent, r.notable} {
		for _, c := range ring.buf {
			if c != nil {
				seen[c.ID] = struct{}{}
			}
		}
	}
	return len(seen)
}

// Captured reports the total captures recorded over the recorder's
// lifetime, including evicted ones — the counter behind
// wlq_flightrec_captured_total.
func (r *Recorder) Captured() uint64 {
	if r == nil {
		return 0
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.captured
}
