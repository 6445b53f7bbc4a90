// Package wal implements the write-ahead log behind durable live ingestion:
// an append-only sequence of length+CRC32C-framed records in rotating
// segment files. A record accepted through the WAL survives a process kill,
// a torn write, or a short write without corrupting anything written before
// it — the recovery scan distinguishes a torn tail (the expected shape of a
// crash mid-append, silently truncated) from mid-segment corruption (never
// produced by a crash; the WAL refuses to open and quarantines the segment
// for the operator).
//
// Frame layout, all little-endian:
//
//	[4 bytes: payload length n] [4 bytes: CRC32C of payload] [n bytes: payload]
//
// The payload is one logio JSONL record line, so a WAL segment minus its
// framing is a valid log fragment and every existing codec test applies to
// the bytes at rest. Segment files are named wal-<first-lsn, 16 hex>.wal and
// rotate once they exceed Options.SegmentBytes.
//
// Durability is governed by the fsync policy:
//
//	PolicyAlways   fsync after every append; an acknowledged record is on disk.
//	PolicyInterval fsync at most every FsyncInterval (background); a crash
//	               loses at most one interval of acknowledged records.
//	PolicyNever    never fsync explicitly; the OS page cache decides.
//
// See docs/DURABILITY.md for the recovery decision table.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"wlq/internal/logio"
	"wlq/internal/wlog"
)

// Defaults for the zero Options.
const (
	// DefaultSegmentBytes is the rotation threshold for segment files.
	DefaultSegmentBytes = int64(64 << 20)
	// DefaultFsyncInterval paces background syncs under PolicyInterval.
	DefaultFsyncInterval = 100 * time.Millisecond
	// headerSize is the per-frame framing overhead: length + CRC32C.
	headerSize = 8
	// maxFrameBytes caps a single frame's payload — matches the logio
	// scanner's line cap, so any record the codec can produce fits. A header
	// declaring more is framing garbage, never a real record.
	maxFrameBytes = 16 << 20
)

// castagnoli is the CRC32C polynomial table (the iSCSI/ext4 checksum, with
// hardware support on amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Policy selects when appended frames are fsynced.
type Policy int

const (
	// PolicyAlways syncs after every append (the default).
	PolicyAlways Policy = iota
	// PolicyInterval syncs in the background every FsyncInterval.
	PolicyInterval
	// PolicyNever leaves flushing to the operating system.
	PolicyNever
)

// String names the policy as accepted by ParsePolicy.
func (p Policy) String() string {
	switch p {
	case PolicyAlways:
		return "always"
	case PolicyInterval:
		return "interval"
	case PolicyNever:
		return "never"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// ParsePolicy maps the -fsync flag values to a Policy.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "", "always":
		return PolicyAlways, nil
	case "interval":
		return PolicyInterval, nil
	case "never":
		return PolicyNever, nil
	default:
		return 0, fmt.Errorf("wal: unknown fsync policy %q (want always, interval or never)", s)
	}
}

// File is the subset of *os.File the WAL writes through. It is the fault-
// injection seam: internal/faultinject.FaultyFile implements it with short
// writes, fsync errors and error-after-N-bytes faults.
type File interface {
	io.Writer
	Sync() error
	Truncate(size int64) error
	Close() error
}

// Options configures Open.
type Options struct {
	// Dir is the segment directory, created if missing. Required.
	Dir string
	// Policy is the fsync policy (zero value: PolicyAlways).
	Policy Policy
	// FsyncInterval paces background syncs under PolicyInterval
	// (0 = DefaultFsyncInterval).
	FsyncInterval time.Duration
	// SegmentBytes is the rotation threshold (0 = DefaultSegmentBytes).
	SegmentBytes int64
	// OpenFile creates or opens a segment for appending. Nil uses os.
	// Fault-injection tests substitute faultinject.FaultyFile here.
	OpenFile func(path string) (File, error)
	// Hook, when non-nil, fires at named crash points ("append:framed",
	// "append:written", "sync:before", "rotate:before"). A hook that panics
	// simulates a crash at exactly that point; production leaves it nil.
	Hook func(point string)
	// ObserveFsync, when non-nil, receives the wall-clock duration of every
	// fsync — the seam behind the wlq_ingest_fsync_duration_seconds histogram.
	ObserveFsync func(d time.Duration)
}

// Recovery reports what the opening scan found and repaired.
type Recovery struct {
	// Segments is the number of live segment files scanned.
	Segments int
	// Records is the number of whole, checksum-valid records found.
	Records int
	// LastLSN is the lsn of the final recovered record (0 when empty).
	LastLSN uint64
	// TornBytes is how many trailing bytes the scan truncated from the last
	// segment — the torn tail of a crash mid-append.
	TornBytes int64
}

// CorruptError reports mid-segment corruption: a frame that fails its
// checksum (or framing that cannot be parsed) with valid data after it, or
// in any segment before the last. A crash cannot produce that shape —
// appends only ever tear the tail — so the WAL refuses to open, renames the
// segment to <name>.corrupt (quarantine) and leaves the decision to the
// operator.
type CorruptError struct {
	// Segment is the original segment path; Quarantined where it was moved
	// ("" when the rename itself failed).
	Segment     string
	Quarantined string
	// Offset is the byte offset of the bad frame; Reason describes the check
	// that failed.
	Offset int64
	Reason string
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("wal: corrupt segment %s at byte %d: %s (quarantined as %s)",
		e.Segment, e.Offset, e.Reason, e.Quarantined)
}

// Stats is a point-in-time snapshot of the WAL's write-side counters.
type Stats struct {
	// Appends is the number of records appended this process lifetime;
	// Bytes the framed bytes written; Fsyncs the explicit syncs issued;
	// Rotations the segment rotations performed.
	Appends   uint64
	Bytes     uint64
	Fsyncs    uint64
	Rotations uint64
	// Segments is the current number of live segment files; LastLSN the lsn
	// of the newest durable-or-pending record (recovered or appended).
	Segments int
	LastLSN  uint64
	// TornBytes is what the opening recovery scan truncated.
	TornBytes int64
}

// WAL is an open write-ahead log. Safe for concurrent use; appends are
// serialized internally.
type WAL struct {
	opts Options

	mu       sync.Mutex
	f        File   // active segment, nil until the first append
	path     string // active segment path
	size     int64  // bytes written to the active segment
	lastLSN  uint64
	segments []string // live segment paths, oldest first (including active)
	pending  bool     // unsynced frames outstanding
	broken   error    // sticky failure: the WAL refuses further appends
	closed   bool

	appends   uint64
	bytes     uint64
	fsyncs    uint64
	rotations uint64
	torn      int64

	stopSync chan struct{} // interval-sync loop shutdown (nil unless PolicyInterval)
	syncDone chan struct{}
}

// Open scans (and repairs) the segment directory, then readies the WAL for
// appends after the recovered tail. A torn tail is truncated and reported in
// Recovery; mid-segment corruption quarantines the segment and fails with a
// *CorruptError.
func Open(opts Options) (*WAL, Recovery, error) {
	if opts.Dir == "" {
		return nil, Recovery{}, errors.New("wal: empty segment directory")
	}
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = DefaultSegmentBytes
	}
	if opts.FsyncInterval <= 0 {
		opts.FsyncInterval = DefaultFsyncInterval
	}
	if opts.OpenFile == nil {
		opts.OpenFile = func(path string) (File, error) {
			return os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		}
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, Recovery{}, fmt.Errorf("wal: %w", err)
	}
	segments, err := listSegments(opts.Dir)
	if err != nil {
		return nil, Recovery{}, err
	}

	var rec Recovery
	rec.Segments = len(segments)
	for i, seg := range segments {
		last := i == len(segments)-1
		sr, err := scanSegment(seg, last, rec.LastLSN, nil)
		if err != nil {
			var ce *CorruptError
			if errors.As(err, &ce) {
				quarantine(ce)
			}
			return nil, Recovery{}, err
		}
		rec.Records += sr.records
		if sr.records > 0 {
			rec.LastLSN = sr.lastLSN
		}
		if sr.tornBytes > 0 {
			// Repair the tail so the next append continues at a frame
			// boundary. Truncation is the only write recovery performs.
			if err := os.Truncate(seg, sr.goodOffset); err != nil {
				return nil, Recovery{}, fmt.Errorf("wal: truncating torn tail of %s: %w", seg, err)
			}
			rec.TornBytes += sr.tornBytes
		}
	}

	w := &WAL{opts: opts, lastLSN: rec.LastLSN, segments: segments, torn: rec.TornBytes}
	if len(segments) > 0 {
		// Resume the last segment (it rotates on the next append if full).
		last := segments[len(segments)-1]
		fi, err := os.Stat(last)
		if err != nil {
			return nil, Recovery{}, fmt.Errorf("wal: %w", err)
		}
		f, err := opts.OpenFile(last)
		if err != nil {
			return nil, Recovery{}, fmt.Errorf("wal: reopening %s: %w", last, err)
		}
		w.f, w.path, w.size = f, last, fi.Size()
	}
	if opts.Policy == PolicyInterval {
		w.stopSync = make(chan struct{})
		w.syncDone = make(chan struct{})
		go w.syncLoop()
	}
	return w, rec, nil
}

// quarantine moves a corrupt segment aside so a restart does not loop on the
// same failure; the operator inspects or deletes the .corrupt file.
func quarantine(ce *CorruptError) {
	dst := ce.Segment + ".corrupt"
	if err := os.Rename(ce.Segment, dst); err == nil {
		ce.Quarantined = dst
	}
}

// listSegments returns the live segment paths in lsn order.
func listSegments(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	var segs []string
	for _, e := range entries {
		name := e.Name()
		if !e.IsDir() && strings.HasPrefix(name, "wal-") && strings.HasSuffix(name, ".wal") {
			segs = append(segs, filepath.Join(dir, name))
		}
	}
	sort.Strings(segs) // fixed-width hex lsn names sort chronologically
	return segs, nil
}

// segmentName names a segment by the lsn of its first record.
func segmentName(dir string, firstLSN uint64) string {
	return filepath.Join(dir, fmt.Sprintf("wal-%016x.wal", firstLSN))
}

// scanResult is one segment's recovery outcome.
type scanResult struct {
	records    int
	lastLSN    uint64
	goodOffset int64 // end of the last whole frame
	tornBytes  int64 // trailing bytes past goodOffset (last segment only)
}

// scanSegment walks a segment's frames. prevLSN is the lsn of the last
// record recovered before this segment; records must continue strictly
// ascending. When emit is non-nil every decoded record is passed to it.
//
// The torn-tail/corruption decision table (docs/DURABILITY.md):
//
//   - incomplete header or payload at end of the LAST segment → torn tail
//   - declared length 0, > maxFrameBytes, or overrunning the LAST segment's
//     end → torn tail (garbage header written by an interrupted append)
//   - CRC mismatch on a frame ending exactly at the LAST segment's end →
//     torn tail (payload partially flushed)
//   - CRC mismatch (or any of the above) with valid bytes after it, or in
//     any earlier segment → corruption: refuse and quarantine
//   - checksum-valid payload that fails to decode, or an lsn that is not
//     strictly ascending → corruption (a crash cannot forge a valid CRC)
func scanSegment(path string, last bool, prevLSN uint64, emit func(wlog.Record) error) (scanResult, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return scanResult{}, fmt.Errorf("wal: %w", err)
	}
	res := scanResult{lastLSN: prevLSN}
	size := int64(len(data))
	off := int64(0)
	corrupt := func(reason string) (scanResult, error) {
		return scanResult{}, &CorruptError{Segment: path, Offset: off, Reason: reason}
	}
	torn := func() (scanResult, error) {
		if !last {
			return corrupt("truncated frame before the final segment")
		}
		res.goodOffset = off
		res.tornBytes = size - off
		return res, nil
	}
	for off < size {
		if size-off < headerSize {
			return torn()
		}
		n := int64(binary.LittleEndian.Uint32(data[off:]))
		sum := binary.LittleEndian.Uint32(data[off+4:])
		if n == 0 || n > maxFrameBytes || off+headerSize+n > size {
			// Unusable length. At the tail it is an interrupted header;
			// followed by nothing else it IS the tail.
			return torn()
		}
		payload := data[off+headerSize : off+headerSize+n]
		if crc32.Checksum(payload, castagnoli) != sum {
			if last && off+headerSize+n == size {
				return torn() // partially flushed final frame
			}
			return corrupt("checksum mismatch")
		}
		r, err := decodePayload(payload)
		if err != nil {
			return corrupt(fmt.Sprintf("checksum-valid frame does not decode: %v", err))
		}
		if r.LSN <= res.lastLSN {
			return corrupt(fmt.Sprintf("lsn %d not ascending after %d", r.LSN, res.lastLSN))
		}
		if emit != nil {
			if err := emit(r); err != nil {
				return scanResult{}, err
			}
		}
		res.lastLSN = r.LSN
		res.records++
		off += headerSize + n
		res.goodOffset = off
	}
	return res, nil
}

// encodePayload renders a record as one JSONL line (the logio wire form).
func encodePayload(r wlog.Record) ([]byte, error) {
	return logio.EncodeRecord(r)
}

// decodePayload inverts encodePayload.
func decodePayload(payload []byte) (wlog.Record, error) {
	return logio.DecodeRecord(payload)
}

// hook fires the crash-point seam.
func (w *WAL) hook(point string) {
	if w.opts.Hook != nil {
		w.opts.Hook(point)
	}
}

// Append frames recs and writes them with one write, then syncs once per
// the fsync policy: a batch is one write and, under PolicyAlways, one fsync,
// and when Append returns nil under PolicyAlways every record of it is on
// disk. Records must arrive with strictly ascending lsn (the ingest
// coordinator's Definition 2 check guarantees density; the WAL only asserts
// order). A batch goes into one segment: rotation happens before it, never
// inside it.
//
// A failed write leaves no partial frame behind when the filesystem
// cooperates: the segment is truncated back to the last whole frame before
// the batch, so nothing of a failed batch is appended. If even that fails the
// WAL goes sticky-broken and refuses further appends — the recovery scan on
// restart is then the authority on what survived, which is a prefix of the
// batch's frames.
func (w *WAL) Append(recs ...wlog.Record) error {
	if len(recs) == 0 {
		return nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.broken != nil {
		return w.broken
	}
	if w.closed {
		return errors.New("wal: closed")
	}
	var batch []byte
	last := w.lastLSN
	for _, r := range recs {
		if r.LSN <= last {
			return fmt.Errorf("wal: lsn %d not ascending after %d", r.LSN, last)
		}
		last = r.LSN
		payload, err := encodePayload(r)
		if err != nil {
			return fmt.Errorf("wal: encode lsn=%d: %w", r.LSN, err)
		}
		batch = binary.LittleEndian.AppendUint32(batch, uint32(len(payload)))
		batch = binary.LittleEndian.AppendUint32(batch, crc32.Checksum(payload, castagnoli))
		batch = append(batch, payload...)
	}
	w.hook("append:framed")

	if w.f == nil || (w.size > 0 && w.size+int64(len(batch)) > w.opts.SegmentBytes) {
		if err := w.rotateLocked(recs[0].LSN); err != nil {
			return err
		}
	}
	n, err := w.f.Write(batch)
	if err != nil || n < len(batch) {
		if err == nil {
			err = io.ErrShortWrite
		}
		// Scrub the partial batch so the in-process view matches the disk;
		// if the truncate fails too, the WAL is broken and recovery decides.
		if terr := w.f.Truncate(w.size); terr != nil {
			w.broken = fmt.Errorf("wal: write failed (%v) and truncate failed (%v); wal is broken", err, terr)
			return w.broken
		}
		return fmt.Errorf("wal: append lsn=%d..%d: %w", recs[0].LSN, last, err)
	}
	w.hook("append:written")
	w.size += int64(len(batch))
	w.bytes += uint64(len(batch))
	w.appends += uint64(len(recs))
	w.lastLSN = last
	w.pending = true
	if w.opts.Policy == PolicyAlways {
		return w.syncLocked()
	}
	return nil
}

// rotateLocked syncs and closes the active segment and opens a fresh one
// whose name carries the first lsn it will hold.
func (w *WAL) rotateLocked(firstLSN uint64) error {
	w.hook("rotate:before")
	if w.f != nil {
		if w.pending {
			if err := w.syncLocked(); err != nil {
				return err
			}
		}
		if err := w.f.Close(); err != nil {
			return fmt.Errorf("wal: closing %s: %w", w.path, err)
		}
		w.rotations++
	}
	path := segmentName(w.opts.Dir, firstLSN)
	f, err := w.opts.OpenFile(path)
	if err != nil {
		return fmt.Errorf("wal: creating %s: %w", path, err)
	}
	w.f, w.path, w.size = f, path, 0
	w.segments = append(w.segments, path)
	return nil
}

// syncLocked issues one fsync and observes its latency. An fsync failure is
// sticky: the kernel may have dropped the dirty pages, so pretending a later
// fsync could still make the data durable would be a lie (the PostgreSQL
// fsync-gate lesson). The WAL refuses further appends and the caller
// surfaces the outage.
func (w *WAL) syncLocked() error {
	w.hook("sync:before")
	start := time.Now()
	err := w.f.Sync()
	if w.opts.ObserveFsync != nil {
		w.opts.ObserveFsync(time.Since(start))
	}
	w.fsyncs++
	if err != nil {
		w.broken = fmt.Errorf("wal: fsync %s: %w", w.path, err)
		return w.broken
	}
	w.pending = false
	return nil
}

// Sync flushes outstanding frames to disk, regardless of policy.
func (w *WAL) Sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.broken != nil {
		return w.broken
	}
	if w.f == nil || !w.pending {
		return nil
	}
	return w.syncLocked()
}

// syncLoop is the PolicyInterval background flusher.
func (w *WAL) syncLoop() {
	defer close(w.syncDone)
	t := time.NewTicker(w.opts.FsyncInterval)
	defer t.Stop()
	for {
		select {
		case <-w.stopSync:
			return
		case <-t.C:
			_ = w.Sync() // a broken WAL surfaces on the next Append
		}
	}
}

// Replay streams every recovered record, oldest first, to fn. It re-scans
// the repaired segments from disk; Open must have succeeded, so a scan error
// here means the files changed underneath the process. Replay does not block
// Append, but the caller (the ingest coordinator) serializes them.
func (w *WAL) Replay(fn func(wlog.Record) error) error {
	w.mu.Lock()
	segments := append([]string(nil), w.segments...)
	w.mu.Unlock()
	prev := uint64(0)
	for i, seg := range segments {
		sr, err := scanSegment(seg, i == len(segments)-1, prev, fn)
		if err != nil {
			return err
		}
		if sr.records > 0 {
			prev = sr.lastLSN
		}
	}
	return nil
}

// Stats snapshots the write-side counters.
func (w *WAL) Stats() Stats {
	w.mu.Lock()
	defer w.mu.Unlock()
	return Stats{
		Appends:   w.appends,
		Bytes:     w.bytes,
		Fsyncs:    w.fsyncs,
		Rotations: w.rotations,
		Segments:  len(w.segments),
		LastLSN:   w.lastLSN,
		TornBytes: w.torn,
	}
}

// Close stops the background flusher, syncs outstanding frames (best
// effort on a broken WAL) and closes the active segment.
func (w *WAL) Close() error {
	if w.stopSync != nil {
		close(w.stopSync)
		<-w.syncDone
		w.stopSync = nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return nil
	}
	w.closed = true
	var err error
	if w.f != nil {
		if w.pending && w.broken == nil {
			err = w.syncLocked()
		}
		if cerr := w.f.Close(); cerr != nil && err == nil {
			err = cerr
		}
		w.f = nil
	}
	return err
}
