// Package ingest coordinates durable live ingestion: every append is
// serialized through a write-ahead log (internal/wal) before it touches the
// in-memory store, so a record the server has acknowledged survives a
// process kill and is replayed into the store on restart.
//
// The ordering invariant is WAL-then-apply: a record reaches the
// stream.Monitor only after its frame is in the WAL (and, under
// wal.PolicyAlways, fsynced). A crash can therefore leave the WAL ahead of
// the store — never behind — and recovery closes the gap by replaying the
// WAL over the base snapshot, skipping records the snapshot already holds
// (idempotent by lsn, which Definition 2 makes globally unique and dense).
//
// Validation happens before the WAL write: a record violating the
// Definition 2 discipline is rejected with a *RejectError naming the
// offending record and is never persisted, so the WAL only ever holds
// records that were valid when written.
package ingest

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"wlq/internal/resilience"
	"wlq/internal/stream"
	"wlq/internal/wal"
	"wlq/internal/wlog"
)

// ErrBusy reports apply-queue saturation: more appenders are waiting than
// the configured queue depth. The HTTP layer maps it to 429 + Retry-After.
var ErrBusy = errors.New("ingest: apply queue saturated")

// RejectError reports a record that violates the Definition 2 log
// discipline. It names the offending record so the HTTP 422 body can show
// the client exactly what was refused and why.
type RejectError struct {
	// Record is the refused record; Err the monitor's validation error.
	Record wlog.Record
	Err    error
}

func (e *RejectError) Error() string {
	return fmt.Sprintf("ingest: rejected record %s: %v", e.Record, e.Err)
}

func (e *RejectError) Unwrap() error { return e.Err }

// Config configures Open.
type Config struct {
	// Dir is the WAL segment directory for this log. Required.
	Dir string
	// Policy, FsyncInterval and SegmentBytes pass through to wal.Options.
	Policy        wal.Policy
	FsyncInterval time.Duration
	SegmentBytes  int64
	// Queue bounds how many append requests may be in flight (admitted but
	// not yet applied) before new ones are shed with ErrBusy. 0 or negative
	// means unlimited.
	Queue int
	// OpenFile, Hook and ObserveFsync pass through to wal.Options (fault
	// injection and metrics seams).
	OpenFile     func(path string) (wal.File, error)
	Hook         func(point string)
	ObserveFsync func(d time.Duration)
}

// Stats is a snapshot of the coordinator's counters.
type Stats struct {
	// Accepted counts records durably appended and applied this process
	// lifetime; Rejected the Definition 2 refusals; Shed the ErrBusy
	// backpressure refusals.
	Accepted uint64
	Rejected uint64
	Shed     uint64
	// Replayed is how many WAL records recovery applied on top of the base
	// snapshot at Open (or the last Rebase); Deduped how many it skipped as
	// already present.
	Replayed uint64
	Deduped  uint64
	// LastLSN is the newest applied lsn; WAL the underlying log's counters.
	LastLSN uint64
	WAL     wal.Stats
	// QueueDepth/QueueCapacity describe the apply queue right now
	// (capacity 0 = unlimited).
	QueueDepth    int
	QueueCapacity int
}

// Coordinator serializes appends through the WAL into a live Monitor.
// Safe for concurrent use. Reads never wait on an append: the monitor is
// published through an atomic pointer, and the counters are atomic.
type Coordinator struct {
	cfg Config
	adm *resilience.Admission

	mu  sync.Mutex // serializes WAL-then-apply, and Rebase; held across both
	w   *wal.WAL
	mon atomic.Pointer[stream.Monitor]

	accepted atomic.Uint64
	rejected atomic.Uint64
	replayed atomic.Uint64
	deduped  atomic.Uint64
}

// Open builds the live monitor from the base snapshot (which must satisfy
// Definition 2 — the server validates before enabling ingestion), opens the
// WAL, and replays any records the WAL holds beyond the snapshot. Recovery
// semantics — torn tails truncated, corruption refused — are the WAL's; see
// that package and docs/DURABILITY.md.
func Open(base *wlog.Log, cfg Config) (*Coordinator, wal.Recovery, error) {
	mon, err := newMonitor(base)
	if err != nil {
		return nil, wal.Recovery{}, err
	}
	w, rec, err := wal.Open(wal.Options{
		Dir:           cfg.Dir,
		Policy:        cfg.Policy,
		FsyncInterval: cfg.FsyncInterval,
		SegmentBytes:  cfg.SegmentBytes,
		OpenFile:      cfg.OpenFile,
		Hook:          cfg.Hook,
		ObserveFsync:  cfg.ObserveFsync,
	})
	if err != nil {
		return nil, wal.Recovery{}, err
	}
	c := &Coordinator{cfg: cfg, w: w}
	if cfg.Queue > 0 {
		c.adm = resilience.NewAdmission(cfg.Queue)
	}
	applied, skipped, err := replayInto(mon, w)
	if err != nil {
		w.Close()
		return nil, wal.Recovery{}, err
	}
	c.replayed.Store(applied)
	c.deduped.Store(skipped)
	c.mon.Store(mon)
	return c, rec, nil
}

// newMonitor loads the base snapshot into a fresh monitor.
func newMonitor(base *wlog.Log) (*stream.Monitor, error) {
	mon := stream.NewMonitor(nil)
	if base != nil {
		if err := mon.IngestLog(base); err != nil {
			return nil, fmt.Errorf("ingest: base snapshot violates the log discipline: %w", err)
		}
	}
	return mon, nil
}

// replayInto applies WAL records beyond the monitor's high-water lsn, as one
// version. Records at or below it are duplicates of the snapshot (or of a
// previous replay pass interrupted mid-apply) and are skipped — lsn
// identifies a record globally, so (wid, lsn) dedup reduces to lsn dedup. A
// WAL record past the watermark that the monitor refuses is a real conflict
// (the base snapshot changed shape underneath the WAL); replay stops there
// with an error naming the record.
func replayInto(mon *stream.Monitor, w *wal.WAL) (applied, skipped uint64, err error) {
	base := mon.LastLSN()
	var recs []wlog.Record
	err = w.Replay(func(r wlog.Record) error {
		if r.LSN <= base {
			skipped++
		} else {
			recs = append(recs, r)
		}
		return nil
	})
	if err != nil {
		return 0, 0, err
	}
	if err := mon.Ingest(recs...); err != nil {
		r := recs[mon.LastLSN()-base]
		return 0, 0, fmt.Errorf("ingest: wal replay conflicts with base snapshot at record %s: %w", r, err)
	}
	return uint64(len(recs)), skipped, nil
}

// Append validates, durably logs, and applies one record, returning its
// assigned lsn. A zero r.LSN asks the server to assign the next lsn; a
// non-zero lsn must be exactly the next (optimistic concurrency for clients
// that track the watermark). Returns *RejectError for discipline
// violations, ErrBusy under backpressure, and the WAL's error when
// durability itself fails (the record is then NOT applied).
func (c *Coordinator) Append(r wlog.Record) (uint64, error) {
	if c.adm != nil {
		if !c.adm.TryAcquire() {
			return 0, ErrBusy
		}
		defer c.adm.Release()
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	mon := c.Monitor()
	if r.LSN == 0 {
		r.LSN = mon.LastLSN() + 1
	}
	if err := mon.Validate(r); err != nil {
		c.rejected.Add(1)
		return 0, &RejectError{Record: r, Err: err}
	}
	if err := c.w.Append(r); err != nil {
		return 0, err
	}
	// The monitor re-validates inside Ingest; after Validate succeeded under
	// the coordinator lock this cannot fail, but belt-and-braces: a failure
	// here leaves the record in the WAL, where restart replay would apply
	// it — so surface it loudly rather than silently diverge.
	if err := mon.Ingest(r); err != nil {
		return 0, fmt.Errorf("ingest: wal accepted but apply failed for %s: %w", r, err)
	}
	c.accepted.Add(1)
	return r.LSN, nil
}

// Rebase swaps in a monitor rebuilt from a freshly reloaded base snapshot
// with the WAL replayed on top (dedup-skipping), publishing it with one
// pointer store — the hot-reload-vs-append fix: durable appends survive a
// reload instead of being silently dropped.
// On conflict (the new snapshot is incompatible with the WAL's records) the
// coordinator is left unchanged and the error names the first conflicting
// record; the server quarantines the log in that case.
func (c *Coordinator) Rebase(base *wlog.Log) error {
	mon, err := newMonitor(base)
	if err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	applied, skipped, err := replayInto(mon, c.w)
	if err != nil {
		return err
	}
	c.replayed.Store(applied)
	c.deduped.Store(skipped)
	c.mon.Store(mon)
	return nil
}

// Monitor returns the live monitor: one atomic load, which never waits on
// an append in flight.
func (c *Coordinator) Monitor() *stream.Monitor { return c.mon.Load() }

// LastLSN returns the applied high-water mark.
func (c *Coordinator) LastLSN() uint64 { return c.Monitor().LastLSN() }

// Admission exposes the apply-queue limiter (nil when unlimited) so tests
// can saturate it deterministically.
func (c *Coordinator) Admission() *resilience.Admission { return c.adm }

// Stats snapshots the counters.
func (c *Coordinator) Stats() Stats {
	st := Stats{
		Accepted: c.accepted.Load(),
		Rejected: c.rejected.Load(),
		Replayed: c.replayed.Load(),
		Deduped:  c.deduped.Load(),
		LastLSN:  c.LastLSN(),
		WAL:      c.w.Stats(),
	}
	if c.adm != nil {
		st.Shed = c.adm.Shed()
		st.QueueDepth = c.adm.InFlight()
		st.QueueCapacity = c.adm.Capacity()
	}
	return st
}

// Close syncs and closes the WAL. The monitor stays readable.
func (c *Coordinator) Close() error { return c.w.Close() }
