package wal

import (
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"wlq/internal/faultinject"
	"wlq/internal/wlog"
)

// rec builds a minimal record; the WAL only cares about framing, not
// Definition 2 (the ingest coordinator owns that).
func rec(lsn, wid, seq uint64, act string) wlog.Record {
	return wlog.Record{LSN: lsn, WID: wid, Seq: seq, Activity: act}
}

// streamOf appends n records lsn=1..n to a fresh WAL and returns its dir.
func streamOf(t *testing.T, n int, opts Options) string {
	t.Helper()
	if opts.Dir == "" {
		opts.Dir = t.TempDir()
	}
	w, rc, err := Open(opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if rc.Records != 0 {
		t.Fatalf("fresh dir recovered %d records", rc.Records)
	}
	for i := 1; i <= n; i++ {
		if err := w.Append(rec(uint64(i), uint64(i%3+1), uint64(i), "A")); err != nil {
			t.Fatalf("Append lsn=%d: %v", i, err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	return opts.Dir
}

// replayAll reopens dir and returns every recovered record plus the Recovery.
func replayAll(t *testing.T, dir string) ([]wlog.Record, Recovery) {
	t.Helper()
	w, rc, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer w.Close()
	var got []wlog.Record
	if err := w.Replay(func(r wlog.Record) error {
		got = append(got, r)
		return nil
	}); err != nil {
		t.Fatalf("Replay: %v", err)
	}
	return got, rc
}

// lastSegment returns the newest live segment file in dir.
func lastSegment(t *testing.T, dir string) string {
	t.Helper()
	segs, err := listSegments(dir)
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments in %s (err=%v)", dir, err)
	}
	return segs[len(segs)-1]
}

func TestWALAppendReplayRoundtrip(t *testing.T) {
	dir := streamOf(t, 25, Options{})
	got, rc := replayAll(t, dir)
	if rc.Records != 25 || rc.LastLSN != 25 || rc.TornBytes != 0 {
		t.Fatalf("recovery = %+v, want 25 clean records", rc)
	}
	if len(got) != 25 {
		t.Fatalf("replayed %d records, want 25", len(got))
	}
	for i, r := range got {
		want := rec(uint64(i+1), uint64((i+1)%3+1), uint64(i+1), "A")
		if !r.Equal(want) {
			t.Fatalf("record %d = %v, want %v", i, r, want)
		}
	}
}

func TestWALAttributesSurviveRoundtrip(t *testing.T) {
	dir := t.TempDir()
	w, _, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	r := rec(1, 7, 1, "SeeDoctor")
	r.In = wlog.AttrMap{"patient": wlog.String("p-9")}
	r.Out = wlog.AttrMap{"cost": wlog.Int(250)}
	if err := w.Append(r); err != nil {
		t.Fatalf("Append: %v", err)
	}
	w.Close()
	got, _ := replayAll(t, dir)
	if len(got) != 1 || !got[0].Equal(r) {
		t.Fatalf("roundtrip lost attributes: got %v want %v", got, r)
	}
}

func TestWALRejectsNonAscendingLSN(t *testing.T) {
	dir := t.TempDir()
	w, _, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer w.Close()
	if err := w.Append(rec(5, 1, 1, "A")); err != nil {
		t.Fatalf("Append: %v", err)
	}
	if err := w.Append(rec(5, 1, 2, "B")); err == nil {
		t.Fatal("duplicate lsn accepted")
	}
	if err := w.Append(rec(4, 1, 2, "B")); err == nil {
		t.Fatal("descending lsn accepted")
	}
	if err := w.Append(rec(6, 1, 2, "B")); err != nil {
		t.Fatalf("ascending lsn rejected: %v", err)
	}
}

func TestWALEmptySegmentIsValid(t *testing.T) {
	dir := t.TempDir()
	// A crash can die between creating a segment and writing its first
	// frame; the scan must treat the empty file as zero records, not error.
	if err := os.WriteFile(segmentName(dir, 1), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	got, rc := replayAll(t, dir)
	if len(got) != 0 || rc.Records != 0 || rc.Segments != 1 {
		t.Fatalf("empty segment: records=%d segments=%d", rc.Records, rc.Segments)
	}
}

func TestWALAppendsContinueAfterEmptySegmentRecovery(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(segmentName(dir, 1), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	w, _, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if err := w.Append(rec(1, 1, 1, "A")); err != nil {
		t.Fatalf("Append after empty recovery: %v", err)
	}
	w.Close()
	got, _ := replayAll(t, dir)
	if len(got) != 1 {
		t.Fatalf("replayed %d records, want 1", len(got))
	}
}

func TestWALTornTailTruncated(t *testing.T) {
	// Chop the final frame at several byte positions; every cut is a torn
	// tail: recovery keeps the records before it and truncates the rest.
	for _, chop := range []int64{1, 3, headerSize - 1, headerSize, headerSize + 1} {
		dir := streamOf(t, 10, Options{})
		seg := lastSegment(t, dir)
		fi, err := os.Stat(seg)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.Truncate(seg, fi.Size()-chop); err != nil {
			t.Fatal(err)
		}
		got, rc := replayAll(t, dir)
		if len(got) != 9 || rc.Records != 9 || rc.LastLSN != 9 {
			t.Fatalf("chop=%d: recovered %d records (recovery %+v), want 9", chop, len(got), rc)
		}
		if rc.TornBytes == 0 {
			t.Fatalf("chop=%d: torn bytes not reported", chop)
		}
		// The truncation must be persistent: a second scan sees a clean log.
		got2, rc2 := replayAll(t, dir)
		if len(got2) != 9 || rc2.TornBytes != 0 {
			t.Fatalf("chop=%d: tail not repaired on disk (second recovery %+v)", chop, rc2)
		}
	}
}

func TestWALExactlyTornLengthPrefix(t *testing.T) {
	// The crash wrote exactly the 4-byte length prefix of the next frame and
	// nothing else — the edge the scan must read as an incomplete header.
	dir := streamOf(t, 5, Options{})
	seg := lastSegment(t, dir)
	f, err := os.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x40, 0x00, 0x00, 0x00}); err != nil {
		t.Fatal(err)
	}
	f.Close()
	got, rc := replayAll(t, dir)
	if len(got) != 5 || rc.TornBytes != 4 {
		t.Fatalf("recovered %d records, torn=%d; want 5 records, 4 torn bytes", len(got), rc.TornBytes)
	}
}

func TestWALGarbageLengthAtTailTruncated(t *testing.T) {
	// A header whose declared length is absurd (over maxFrameBytes) with
	// nothing after it is an interrupted append, not corruption.
	dir := streamOf(t, 3, Options{})
	seg := lastSegment(t, dir)
	f, err := os.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0xff, 0xff, 0xff, 0xff, 1, 2, 3, 4, 5}); err != nil {
		t.Fatal(err)
	}
	f.Close()
	got, rc := replayAll(t, dir)
	if len(got) != 3 || rc.TornBytes != 9 {
		t.Fatalf("recovered %d records, torn=%d; want 3 records, 9 torn bytes", len(got), rc.TornBytes)
	}
}

func TestWALMidSegmentCorruptionQuarantined(t *testing.T) {
	// Flip a payload bit in the MIDDLE of the segment: valid frames follow,
	// so this cannot be a torn tail. Open must refuse and quarantine.
	dir := streamOf(t, 10, Options{})
	seg := lastSegment(t, dir)
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	// Walk the framing to target the 5th frame's payload — flipping a
	// header byte instead would be a different (torn-tail) case.
	off := int64(0)
	for i := 0; i < 4; i++ {
		off += headerSize + int64(binary.LittleEndian.Uint32(data[off:]))
	}
	data[off+headerSize+2] ^= 0x01
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err = Open(Options{Dir: dir})
	var ce *CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("Open = %v, want *CorruptError", err)
	}
	if ce.Quarantined == "" || !strings.HasSuffix(ce.Quarantined, ".corrupt") {
		t.Fatalf("segment not quarantined: %+v", ce)
	}
	if _, err := os.Stat(ce.Quarantined); err != nil {
		t.Fatalf("quarantine file missing: %v", err)
	}
	if _, err := os.Stat(seg); !os.IsNotExist(err) {
		t.Fatalf("corrupt segment still live: %v", err)
	}
	// After the operator removes the quarantined file the dir opens clean.
	if err := os.Remove(ce.Quarantined); err != nil {
		t.Fatal(err)
	}
	if _, rc, err := mustOpen(dir); err != nil || rc.Records != 0 {
		t.Fatalf("post-quarantine open: rc=%+v err=%v", rc, err)
	}
}

func mustOpen(dir string) (*WAL, Recovery, error) {
	w, rc, err := Open(Options{Dir: dir})
	if w != nil {
		w.Close()
	}
	return w, rc, err
}

func TestWALCorruptionInEarlierSegmentRefused(t *testing.T) {
	// Any damage in a non-final segment is corruption even at its tail: a
	// crash only ever tears the newest segment.
	dir := t.TempDir()
	streamOf(t, 12, Options{Dir: dir, SegmentBytes: 128}) // forces rotation
	segs, err := listSegments(dir)
	if err != nil || len(segs) < 2 {
		t.Fatalf("rotation did not produce multiple segments: %v (err=%v)", segs, err)
	}
	first := segs[0]
	fi, err := os.Stat(first)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(first, fi.Size()-2); err != nil {
		t.Fatal(err)
	}
	_, _, err = Open(Options{Dir: dir})
	var ce *CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("Open = %v, want *CorruptError for non-final torn segment", err)
	}
}

func TestWALRotationAndRecoveryAcrossSegments(t *testing.T) {
	dir := t.TempDir()
	streamOf(t, 50, Options{Dir: dir, SegmentBytes: 256})
	segs, _ := listSegments(dir)
	if len(segs) < 3 {
		t.Fatalf("expected several segments, got %d", len(segs))
	}
	got, rc := replayAll(t, dir)
	if len(got) != 50 || rc.LastLSN != 50 || rc.Segments != len(segs) {
		t.Fatalf("cross-segment recovery: %d records, %+v", len(got), rc)
	}
	// Appends continue after recovery with the lsn sequence intact.
	w, _, err := Open(Options{Dir: dir, SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(rec(51, 1, 51, "A")); err != nil {
		t.Fatalf("append after recovery: %v", err)
	}
	w.Close()
	got, _ = replayAll(t, dir)
	if len(got) != 51 {
		t.Fatalf("post-recovery append lost: %d records", len(got))
	}
}

func TestWALShortWriteScrubbedAndRetryable(t *testing.T) {
	// faultinject: the 3rd Write lands only half the frame. Append must
	// report the failure, scrub the partial frame, and accept a retry.
	dir := t.TempDir()
	var ff *faultinject.FaultyFile
	opts := Options{Dir: dir, OpenFile: func(path string) (File, error) {
		f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, err
		}
		ff = faultinject.NewFaultyFile(f).ShortWriteOnNth(3)
		return ff, nil
	}}
	w, _, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 2; i++ {
		if err := w.Append(rec(uint64(i), 1, uint64(i), "A")); err != nil {
			t.Fatalf("Append %d: %v", i, err)
		}
	}
	if err := w.Append(rec(3, 1, 3, "A")); err == nil {
		t.Fatal("short write not surfaced")
	}
	// The WAL is not broken — the partial frame was scrubbed; retry works.
	if err := w.Append(rec(3, 1, 3, "A")); err != nil {
		t.Fatalf("retry after short write: %v", err)
	}
	w.Close()
	got, rc := replayAll(t, dir)
	if len(got) != 3 || rc.TornBytes != 0 {
		t.Fatalf("after scrubbed short write: %d records, recovery %+v", len(got), rc)
	}
}

func TestWALFsyncErrorIsSticky(t *testing.T) {
	// faultinject: fsync fails once. Durability of already-acked frames is
	// unknowable, so the WAL must go sticky-broken (the postgres lesson),
	// refusing all further appends.
	dir := t.TempDir()
	opts := Options{Dir: dir, OpenFile: func(path string) (File, error) {
		f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, err
		}
		return faultinject.NewFaultyFile(f).FailSyncOnNth(2), nil
	}}
	w, _, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := w.Append(rec(1, 1, 1, "A")); err != nil {
		t.Fatalf("Append 1: %v", err)
	}
	err = w.Append(rec(2, 1, 2, "A"))
	if !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("fsync fault not surfaced: %v", err)
	}
	if err := w.Append(rec(3, 1, 3, "A")); err == nil {
		t.Fatal("append accepted on a broken wal")
	}
	if err := w.Sync(); err == nil {
		t.Fatal("sync succeeded on a broken wal")
	}
}

func TestWALErrorAfterBytesLeavesPrefixRecoverable(t *testing.T) {
	// faultinject: the disk dies after 200 bytes. Whatever whole frames
	// landed before the cliff must recover; the torn remainder is truncated.
	dir := t.TempDir()
	opts := Options{Dir: dir, Policy: PolicyNever, OpenFile: func(path string) (File, error) {
		f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, err
		}
		return faultinject.NewFaultyFile(f).ErrorAfterBytes(200), nil
	}}
	w, _, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	accepted := 0
	for i := 1; i <= 20; i++ {
		if err := w.Append(rec(uint64(i), 1, uint64(i), "A")); err != nil {
			break
		}
		accepted++
	}
	w.Close()
	if accepted == 0 || accepted == 20 {
		t.Fatalf("fault did not bite mid-stream (accepted %d)", accepted)
	}
	got, _ := replayAll(t, dir)
	if len(got) < accepted {
		t.Fatalf("recovered %d < %d acknowledged records", len(got), accepted)
	}
}

func TestWALCrashHookAtFramePoints(t *testing.T) {
	// PanicAtPoint simulates dying exactly between framing and writing: no
	// bytes of the doomed frame may reach the disk.
	dir := t.TempDir()
	hook := faultinject.PanicAtPoint("append:framed", 3)
	w, _, err := Open(Options{Dir: dir, Hook: func(p string) { hook(p) }})
	if err != nil {
		t.Fatal(err)
	}
	crashed := func() (crashed bool) {
		defer func() { crashed = recover() != nil }()
		for i := 1; i <= 5; i++ {
			if err := w.Append(rec(uint64(i), 1, uint64(i), "A")); err != nil {
				t.Errorf("Append %d: %v", i, err)
			}
		}
		return false
	}()
	if !crashed {
		t.Fatal("crash hook never fired")
	}
	// Simulated kill: the file handle is simply abandoned, like a dead
	// process. Recovery sees exactly the two acknowledged records.
	got, rc := replayAll(t, dir)
	if len(got) != 2 || rc.TornBytes != 0 {
		t.Fatalf("after crash at append:framed: %d records, %+v", len(got), rc)
	}
}

func TestWALIntervalPolicyFlushesInBackground(t *testing.T) {
	dir := t.TempDir()
	synced := make(chan struct{}, 16)
	opts := Options{
		Dir:           dir,
		Policy:        PolicyInterval,
		FsyncInterval: 5 * time.Millisecond,
		ObserveFsync:  func(time.Duration) { synced <- struct{}{} },
	}
	w, _, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := w.Append(rec(1, 1, 1, "A")); err != nil {
		t.Fatal(err)
	}
	select {
	case <-synced:
	case <-time.After(2 * time.Second):
		t.Fatal("background fsync never fired")
	}
	if st := w.Stats(); st.Fsyncs == 0 {
		t.Fatalf("stats missed the background fsync: %+v", st)
	}
}

func TestWALStats(t *testing.T) {
	dir := t.TempDir()
	w, _, err := Open(Options{Dir: dir, SegmentBytes: 128})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 10; i++ {
		if err := w.Append(rec(uint64(i), 1, uint64(i), "A")); err != nil {
			t.Fatal(err)
		}
	}
	st := w.Stats()
	w.Close()
	if st.Appends != 10 || st.LastLSN != 10 {
		t.Fatalf("stats = %+v", st)
	}
	if st.Rotations == 0 || st.Segments < 2 {
		t.Fatalf("tiny segments did not rotate: %+v", st)
	}
	if st.Fsyncs < st.Appends {
		t.Fatalf("PolicyAlways must fsync per append: %+v", st)
	}
	if st.Bytes == 0 {
		t.Fatalf("no bytes accounted: %+v", st)
	}
}

func TestParsePolicy(t *testing.T) {
	for s, want := range map[string]Policy{"always": PolicyAlways, "": PolicyAlways, "interval": PolicyInterval, "never": PolicyNever} {
		got, err := ParsePolicy(s)
		if err != nil || got != want {
			t.Fatalf("ParsePolicy(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParsePolicy("sometimes"); err == nil {
		t.Fatal("bad policy accepted")
	}
}

func TestWALCRCMismatchOnFinalFrameIsTorn(t *testing.T) {
	// Flip a bit in the LAST frame's payload: the frame ends exactly at the
	// file end, so this is a partially flushed final frame — torn, not
	// corrupt.
	dir := streamOf(t, 6, Options{})
	seg := lastSegment(t, dir)
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-2] ^= 0x01
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}
	got, rc := replayAll(t, dir)
	if len(got) != 5 || rc.TornBytes == 0 {
		t.Fatalf("final-frame crc flip: %d records, %+v; want 5 + torn tail", len(got), rc)
	}
}

func TestWALIgnoresForeignFiles(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"notes.txt", "wal-0000000000000001.wal.corrupt", "other.wal"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	_, rc, err := mustOpen(dir)
	if err != nil || rc.Segments != 0 {
		t.Fatalf("foreign files scanned: rc=%+v err=%v", rc, err)
	}
}

// countingFile counts the writes and fsyncs a segment receives.
type countingFile struct {
	*os.File
	writes, syncs int
}

func (f *countingFile) Write(p []byte) (int, error) { f.writes++; return f.File.Write(p) }
func (f *countingFile) Sync() error                 { f.syncs++; return f.File.Sync() }

// TestWALBatchIsOneWriteAndOneFsync: under PolicyAlways a batch reaches its
// segment as one write and one fsync, its records are counted one by one and
// replay one by one, and a batch whose lsns do not ascend writes nothing.
func TestWALBatchIsOneWriteAndOneFsync(t *testing.T) {
	dir := t.TempDir()
	var cf *countingFile
	w, _, err := Open(Options{Dir: dir, OpenFile: func(path string) (File, error) {
		f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		cf = &countingFile{File: f}
		return cf, err
	}})
	if err != nil {
		t.Fatal(err)
	}
	batch := make([]wlog.Record, 10)
	for i := range batch {
		batch[i] = rec(uint64(i+1), 1, uint64(i+1), "A")
	}
	if err := w.Append(batch...); err != nil {
		t.Fatal(err)
	}
	if cf.writes != 1 || cf.syncs != 1 {
		t.Fatalf("a 10-record batch took %d writes and %d fsyncs, want 1 and 1", cf.writes, cf.syncs)
	}
	if st := w.Stats(); st.Appends != 10 || st.Fsyncs != 1 || st.LastLSN != 10 {
		t.Fatalf("stats = %+v", st)
	}
	if err := w.Append(rec(11, 1, 11, "A"), rec(11, 1, 12, "A")); err == nil {
		t.Fatal("a batch repeating an lsn was accepted")
	}
	if cf.writes != 1 || w.Stats().LastLSN != 10 {
		t.Fatalf("a refused batch wrote: %d writes, lsn %d", cf.writes, w.Stats().LastLSN)
	}
	w.Close()
	got, _ := replayAll(t, dir)
	if len(got) != len(batch) {
		t.Fatalf("replayed %d records, want %d", len(got), len(batch))
	}
	for i := range got {
		if !got[i].Equal(batch[i]) {
			t.Fatalf("record %d replayed as %v, want %v", i, got[i], batch[i])
		}
	}
}

// TestWALTornBatchRecoversAPrefix: a crash that stops a batch's write at any
// byte leaves every batch acknowledged before it whole, and of the torn
// batch a prefix of its records: recovery never skips a record of a batch
// and keeps one after it.
func TestWALTornBatchRecoversAPrefix(t *testing.T) {
	dir := t.TempDir()
	w, _, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	size := func() int64 {
		fi, err := os.Stat(lastSegment(t, dir))
		if err != nil {
			t.Fatal(err)
		}
		return fi.Size()
	}
	if err := w.Append(rec(1, 1, 1, "A"), rec(2, 2, 1, "A"), rec(3, 1, 2, "B")); err != nil {
		t.Fatal(err)
	}
	acked := size()
	if err := w.Append(rec(4, 2, 2, "B"), rec(5, 3, 1, "A"), rec(6, 3, 2, "C"), rec(7, 1, 3, "C")); err != nil {
		t.Fatal(err)
	}
	whole := size()
	w.Close()
	seg := lastSegment(t, dir)
	full, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	for cut := acked; cut < whole; cut++ {
		if err := os.WriteFile(seg, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		got, _ := replayAll(t, dir)
		if len(got) < 3 || len(got) > 6 {
			t.Fatalf("cut at byte %d: recovered %d records, want 3 to 6", cut, len(got))
		}
		for i, r := range got {
			if r.LSN != uint64(i+1) {
				t.Fatalf("cut at byte %d: record %d has lsn %d: not a prefix", cut, i, r.LSN)
			}
		}
	}
}
