// Package ingest coordinates durable live ingestion: every append batch is
// checked, then logged through a write-ahead log (internal/wal) before it
// touches the in-memory store, so a record the server has acknowledged
// survives a process kill and is replayed into the store on restart.
//
// There is one append path. A batch is checked once, by wlog.Check against
// the store version it extends; its valid prefix is logged as one WAL write
// (and, under wal.PolicyAlways, one fsync), then published as one new store
// version. A crash can therefore leave the WAL ahead of the store — never
// behind — and recovery closes the gap by checking the WAL's records beyond
// the base snapshot the same way and publishing them as one version,
// skipping records the snapshot already holds (idempotent by lsn, which
// Definition 2 makes globally unique and dense).
//
// A record violating Definition 2 is refused with wlog.Check's
// *wlog.ValidationError and is never persisted, so the WAL only ever holds
// records that were valid when written.
package ingest

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"wlq/internal/colstore"
	"wlq/internal/resilience"
	"wlq/internal/wal"
	"wlq/internal/wlog"
)

// ErrBusy reports apply-queue saturation: more appenders are waiting than
// the configured queue depth. The HTTP layer maps it to 429 + Retry-After.
var ErrBusy = errors.New("ingest: apply queue saturated")

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
	// lifetime; Rejected the batches a Definition 2 refusal stopped; Shed
	// the ErrBusy backpressure refusals.
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

// Coordinator serializes appends through the WAL into a live store.
// Safe for concurrent use. Reads never wait on an append: the store is
// published through an atomic pointer, and the counters are atomic.
type Coordinator struct {
	cfg Config
	adm *resilience.Admission

	mu  sync.Mutex // serializes check-log-publish, and Rebase; held across all three
	w   *wal.WAL
	cur atomic.Pointer[colstore.Store]

	accepted atomic.Uint64
	rejected atomic.Uint64
	replayed atomic.Uint64
	deduped  atomic.Uint64
}

// Open is OpenStore over the store of a base log (nil is the empty log).
func Open(base *wlog.Log, cfg Config) (*Coordinator, wal.Recovery, error) {
	st := new(colstore.Store)
	if base != nil {
		st = colstore.Build(base)
	}
	return OpenStore(st, cfg)
}

// OpenStore opens the WAL and publishes the base snapshot's store with any
// records the WAL holds beyond it replayed on top. base must satisfy
// Definition 2: the server's builder checks it before enabling ingestion,
// and it is not checked again. Recovery semantics — torn tails truncated,
// corruption refused — are the WAL's; see that package and
// docs/DURABILITY.md.
func OpenStore(base *colstore.Store, cfg Config) (*Coordinator, wal.Recovery, error) {
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
	if err := c.replayOnto(base); err != nil {
		w.Close()
		return nil, wal.Recovery{}, err
	}
	return c, rec, nil
}

// replayOnto publishes st, a base snapshot's store, with the WAL's records
// beyond its high-water lsn appended, as one version. Records at or below it
// are duplicates of the snapshot (or of a previous replay pass interrupted
// mid-apply) and are skipped — lsn identifies a record globally, so (wid,
// lsn) dedup reduces to lsn dedup. The rest are checked against the
// snapshot like any append; a record the check refuses is a real conflict
// (the base snapshot changed shape underneath the WAL), and replay publishes
// nothing and returns an error naming it. Caller holds c.mu or owns c.
func (c *Coordinator) replayOnto(st *colstore.Store) error {
	var recs []wlog.Record
	var skipped uint64
	err := c.w.Replay(func(r wlog.Record) error {
		if r.LSN <= st.LastLSN() {
			skipped++
		} else {
			recs = append(recs, r)
		}
		return nil
	})
	if err != nil {
		return err
	}
	if n, err := wlog.Check(st, recs); err != nil {
		return fmt.Errorf("ingest: wal replay conflicts with base snapshot at record %s: %w", recs[n], err)
	}
	c.replayed.Store(uint64(len(recs)))
	c.deduped.Store(skipped)
	c.cur.Store(st.Append(recs...))
	return nil
}

// Append checks, durably logs and publishes a batch of records, in order, and
// returns how many of them it accepted. A zero lsn asks the coordinator to
// assign the next one, which Append writes into recs in place; a non-zero
// lsn must be exactly the next (optimistic concurrency for clients that
// track the watermark).
//
// The batch is checked once, by wlog.Check against the pinned store version.
// Its valid prefix is written to the WAL as one write and one fsync (under
// wal.PolicyAlways) and published as one version, so an accepted record is
// durable and visible together with the rest of its prefix. When the check
// refuses a record the prefix before it is still accepted, recs[n] is the
// refused record and the error is wlog.Check's *wlog.ValidationError. ErrBusy
// (backpressure) and a WAL error (durability failed) accept nothing.
func (c *Coordinator) Append(recs ...wlog.Record) (int, error) {
	if c.adm != nil {
		if !c.adm.TryAcquire() {
			return 0, ErrBusy
		}
		defer c.adm.Release()
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.cur.Load()
	for i := range recs {
		if recs[i].LSN == 0 {
			recs[i].LSN = st.LastLSN() + uint64(i) + 1
		}
	}
	n, invalid := wlog.Check(st, recs)
	if n > 0 {
		if err := c.w.Append(recs[:n]...); err != nil {
			return 0, err
		}
		c.cur.Store(st.Append(recs[:n]...))
		c.accepted.Add(uint64(n))
	}
	if invalid != nil {
		c.rejected.Add(1)
	}
	return n, invalid
}

// Rebase swaps in the store of a freshly reloaded base snapshot with the WAL
// replayed on top (dedup-skipping), publishing it with one pointer store —
// the hot-reload-vs-append fix: durable appends survive a reload instead of
// being silently dropped. base must satisfy Definition 2, as for OpenStore.
// On conflict (the new snapshot is incompatible with the WAL's records) the
// coordinator is left unchanged and the error names the first conflicting
// record; the server quarantines the log in that case.
func (c *Coordinator) Rebase(base *colstore.Store) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.replayOnto(base)
}

// Store returns the live log's newest version: one atomic load, which never
// waits on an append in flight.
func (c *Coordinator) Store() *colstore.Store { return c.cur.Load() }

// LastLSN returns the applied high-water mark.
func (c *Coordinator) LastLSN() uint64 { return c.Store().LastLSN() }

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

// Close syncs and closes the WAL. The store stays readable.
func (c *Coordinator) Close() error { return c.w.Close() }
