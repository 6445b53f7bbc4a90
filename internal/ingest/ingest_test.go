package ingest

import (
	"errors"
	"path/filepath"
	"slices"
	"sync"
	"testing"
	"time"

	"wlq/internal/colstore"
	"wlq/internal/core/eval"
	"wlq/internal/core/incident"
	"wlq/internal/core/pattern"
	"wlq/internal/gen"
	"wlq/internal/logio"
	"wlq/internal/wlog"
)

func mk(lsn, wid, seq uint64, act string) wlog.Record {
	return wlog.Record{LSN: lsn, WID: wid, Seq: seq, Activity: act}
}

// A small two-instance stream obeying Definition 2.
func sampleStream() []wlog.Record {
	return []wlog.Record{
		mk(1, 1, 1, "START"),
		mk(2, 2, 1, "START"),
		mk(3, 1, 2, "CheckIn"),
		mk(4, 2, 2, "CheckIn"),
		mk(5, 1, 3, "SeeDoctor"),
		mk(6, 1, 4, "END"),
		mk(7, 2, 3, "END"),
	}
}

// query answers q over the coordinator's newest version.
func query(c *Coordinator, q string) *incident.Set {
	return eval.New(c.Store(), eval.Options{}).Eval(pattern.MustParse(q))
}

// cond is the Definition 2 condition err reports, 0 when it reports none.
func cond(err error) wlog.Condition {
	var ve *wlog.ValidationError
	if errors.As(err, &ve) {
		return ve.Cond
	}
	return 0
}

func openEmpty(t *testing.T, dir string, cfg Config) *Coordinator {
	t.Helper()
	cfg.Dir = dir
	c, _, err := Open(nil, cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return c
}

// TestAppendAssignsAndAppliesLSN appends a generated log record by record
// and requires the live store's answers — the incrementally maintained
// index — to equal naive Algorithm 1 over the index built in one shot.
func TestAppendAssignsAndAppliesLSN(t *testing.T) {
	c := openEmpty(t, t.TempDir(), Config{})
	defer c.Close()
	l := gen.MustRandomLog(gen.LogParams{
		Instances: 12, MeanLength: 12, Skew: 1.1, CompleteFraction: 0.6, Seed: 5,
	})
	for i := 0; i < l.Len(); i++ {
		recs := []wlog.Record{l.Record(i)}
		recs[0].LSN = 0 // server-assigned
		n, err := c.Append(recs...)
		if err != nil || n != 1 {
			t.Fatalf("Append %d: %d accepted, %v", i, n, err)
		}
		if recs[0].LSN != uint64(i+1) {
			t.Fatalf("assigned lsn %d, want %d", recs[0].LSN, i+1)
		}
	}
	oracle := eval.New(eval.NewIndex(l), eval.Options{Strategy: eval.StrategyNaive})
	for _, q := range []string{
		"Act00 . Act01",
		"Act00 -> Act02",
		"(Act00 | Act01) & Act02",
		"!Act00 . Act01",
		"START . Act00",
		"Act00 -> END",
	} {
		got := query(c, q)
		if want := oracle.Eval(pattern.MustParse(q)); !got.Equal(want) {
			t.Errorf("%q over appended records:\ngot:  %s\nwant: %s", q, got, want)
		}
	}
	n := uint64(l.Len())
	if st := c.Stats(); st.Accepted != n || st.LastLSN != n || st.WAL.Appends != n {
		t.Fatalf("stats = %+v", st)
	}
}

func TestExplicitLSNOptimisticConcurrency(t *testing.T) {
	c := openEmpty(t, t.TempDir(), Config{})
	defer c.Close()
	if _, err := c.Append(mk(1, 1, 1, "START")); err != nil {
		t.Fatal(err)
	}
	// Stale watermark: lsn 1 again must be refused as a discipline error.
	if n, err := c.Append(mk(1, 1, 2, "A")); n != 0 || cond(err) != wlog.CondDenseLSN {
		t.Fatalf("stale lsn: %d accepted, %v; want 0 and a condition 1 violation", n, err)
	}
	// Exactly-next lsn is accepted.
	if _, err := c.Append(mk(2, 1, 2, "A")); err != nil {
		t.Fatalf("exact next lsn refused: %v", err)
	}
}

func TestRejectNamesOffendingRecord(t *testing.T) {
	c := openEmpty(t, t.TempDir(), Config{})
	defer c.Close()
	if _, err := c.Append(mk(1, 1, 1, "START")); err != nil {
		t.Fatal(err)
	}
	// seq 3 skips seq 2: Definition 2 violation. The accepted count is the
	// refused record's position, and the violation names its assigned lsn.
	batch := []wlog.Record{mk(0, 2, 1, "START"), mk(0, 1, 3, "CheckIn")}
	n, err := c.Append(batch...)
	var ve *wlog.ValidationError
	if n != 1 || !errors.As(err, &ve) || ve.Cond != wlog.CondConsecutiveSeq || ve.LSN != 3 || batch[n].WID != 1 {
		t.Fatalf("Append = %d, %v; want 1 and a condition 3 violation at lsn 3 by wid 1", n, err)
	}
	// The refused record must NOT be in the WAL: restart sees only lsn 1-2.
	c.Close()
	c2, _, err := Open(nil, Config{Dir: c.cfg.Dir})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if c2.LastLSN() != 2 {
		t.Fatalf("rejected record leaked into the WAL: lastLSN %d", c2.LastLSN())
	}
	if st := c2.Stats(); st.Replayed != 2 {
		t.Fatalf("restart replay: %+v", st)
	}
}

func TestCrashRecoveryReplaysWAL(t *testing.T) {
	dir := t.TempDir()
	c := openEmpty(t, dir, Config{})
	for _, r := range sampleStream() {
		if _, err := c.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	// Simulated kill -9: the coordinator is abandoned, never closed.
	want := query(c, "CheckIn -> SeeDoctor")

	c2, rec, err := Open(nil, Config{Dir: dir})
	if err != nil {
		t.Fatalf("recovery open: %v", err)
	}
	defer c2.Close()
	if rec.Records != 7 || c2.LastLSN() != 7 {
		t.Fatalf("recovered %d records, lastLSN %d", rec.Records, c2.LastLSN())
	}
	if got := query(c2, "CheckIn -> SeeDoctor"); !want.Equal(got) {
		t.Fatalf("post-recovery answers diverge:\nbefore: %s\nafter:  %s", want, got)
	}
	// Appends continue after the recovered watermark.
	if _, err := c2.Append(mk(0, 3, 1, "START")); err != nil {
		t.Fatalf("append after recovery: %v", err)
	}
}

func TestReplayDedupAgainstBaseSnapshot(t *testing.T) {
	// The WAL holds lsn 1..7; the base snapshot already contains 1..5
	// (an operator snapshotted mid-stream). Replay must apply only 6..7.
	dir := t.TempDir()
	c := openEmpty(t, dir, Config{})
	all := sampleStream()
	for _, r := range all {
		if _, err := c.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	c.Close()

	base, err := wlog.New(all[:5])
	if err != nil {
		t.Fatal(err)
	}
	c2, _, err := Open(base, Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	st := c2.Stats()
	if st.Replayed != 2 || st.Deduped != 5 {
		t.Fatalf("dedup replay: %+v", st)
	}
	if c2.Store().TotalRecords() != 7 {
		t.Fatalf("double-applied records: %d", c2.Store().TotalRecords())
	}
}

func TestRebaseReplaysWALOverReload(t *testing.T) {
	// Reload-vs-append: rebase onto the same snapshot must keep the WAL's
	// extra records (and a second rebase is idempotent).
	dir := t.TempDir()
	all := sampleStream()
	base, err := wlog.New(all[:5])
	if err != nil {
		t.Fatal(err)
	}
	c, _, err := Open(base, Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, r := range all[5:] {
		if _, err := c.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	for pass := 1; pass <= 2; pass++ {
		if err := c.Rebase(colstore.Build(base)); err != nil {
			t.Fatalf("rebase pass %d: %v", pass, err)
		}
		if c.Store().TotalRecords() != 7 || c.LastLSN() != 7 {
			t.Fatalf("rebase pass %d dropped appends: %d records, lsn %d",
				pass, c.Store().TotalRecords(), c.LastLSN())
		}
	}
}

func TestRebaseConflictLeavesCoordinatorUntouched(t *testing.T) {
	dir := t.TempDir()
	c := openEmpty(t, dir, Config{})
	for _, r := range sampleStream() {
		if _, err := c.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	defer c.Close()
	// A "reloaded" snapshot where wid 1 already ENDed at lsn 2: the WAL's
	// lsn 3 (wid 1, CheckIn) cannot follow it.
	conflicting, err := wlog.New([]wlog.Record{
		mk(1, 1, 1, "START"),
		mk(2, 1, 2, "END"),
	})
	if err != nil {
		t.Fatal(err)
	}
	err = c.Rebase(colstore.Build(conflicting))
	if err == nil {
		t.Fatal("conflicting rebase accepted")
	}
	if cond(err) == 0 {
		t.Fatalf("conflict error %v does not carry a discipline cause", err)
	}
	// The live store still answers from the pre-rebase state.
	if c.Store().TotalRecords() != 7 {
		t.Fatalf("failed rebase mutated the live store: %d records", c.Store().TotalRecords())
	}
}

func TestBackpressureShedsWithErrBusy(t *testing.T) {
	c := openEmpty(t, t.TempDir(), Config{Queue: 1})
	defer c.Close()
	// Hold the only queue slot; the next append must shed deterministically.
	if !c.Admission().TryAcquire() {
		t.Fatal("could not occupy the queue slot")
	}
	_, err := c.Append(mk(1, 1, 1, "START"))
	if !errors.Is(err, ErrBusy) {
		t.Fatalf("saturated append: %v, want ErrBusy", err)
	}
	c.Admission().Release()
	if _, err := c.Append(mk(1, 1, 1, "START")); err != nil {
		t.Fatalf("append after release: %v", err)
	}
	if st := c.Stats(); st.Shed != 1 || st.QueueCapacity != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestReadsDoNotWaitOnFsync: while an append holds the coordinator's lock
// in a stalled fsync, the watermark and a query over the pinned store answer
// at once, from the version before the append.
func TestReadsDoNotWaitOnFsync(t *testing.T) {
	syncing, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	c := openEmpty(t, t.TempDir(), Config{Hook: func(point string) {
		if point == "sync:before" {
			once.Do(func() { close(syncing); <-release })
		}
	}})
	defer c.Close()
	appended := make(chan error, 1)
	go func() {
		_, err := c.Append(mk(1, 1, 1, "START"))
		appended <- err
	}()
	<-syncing

	type view struct {
		lsn    uint64
		starts int
	}
	read := make(chan view, 1)
	go func() {
		read <- view{c.LastLSN(), query(c, "START").Len()}
	}()
	waited := false
	select {
	case v := <-read:
		if v != (view{}) {
			t.Errorf("read beside a stalled fsync saw %+v, want the empty version", v)
		}
	case <-time.After(500 * time.Millisecond):
		waited = true
		t.Error("the watermark and a query waited on an append's fsync")
	}
	close(release)
	if err := <-appended; err != nil {
		t.Fatal(err)
	}
	if waited {
		<-read
	}
	if c.LastLSN() != 1 {
		t.Fatalf("after the fsync: lsn %d, want 1", c.LastLSN())
	}
}

func TestConcurrentAppendersSerialize(t *testing.T) {
	// Many goroutines race to append server-assigned records for distinct
	// wids; every accepted record must get a unique lsn and the final log
	// must be discipline-clean (provable by a clean restart replay).
	dir := t.TempDir()
	c := openEmpty(t, dir, Config{})
	const n = 40
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		go func(wid uint64) {
			_, err := c.Append(wlog.Record{WID: wid, Seq: 1, Activity: "START"})
			errs <- err
		}(uint64(i + 1))
	}
	for i := 0; i < n; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("concurrent append: %v", err)
		}
	}
	if c.LastLSN() != n {
		t.Fatalf("lastLSN %d, want %d", c.LastLSN(), n)
	}
	c.Close()
	c2, rec, err := Open(nil, Config{Dir: dir})
	if err != nil {
		t.Fatalf("restart after concurrent appends: %v", err)
	}
	defer c2.Close()
	if rec.Records != n {
		t.Fatalf("recovered %d records, want %d", rec.Records, n)
	}
}

// TestAppendBatchIsOneFsyncAndOneVersion: a batch is checked once, logged
// with one fsync and published as one version, so a reader sees none of it
// while its fsync is in flight and all of it after. A refused record stops
// the batch: the records before it are still logged (one more fsync) and
// published, and a restart recovers exactly those.
func TestAppendBatchIsOneFsyncAndOneVersion(t *testing.T) {
	dir := t.TempDir()
	var c *Coordinator
	var seen []uint64 // the watermark a reader saw at each fsync
	c = openEmpty(t, dir, Config{Hook: func(point string) {
		if point == "sync:before" {
			seen = append(seen, c.LastLSN())
		}
	}})
	recs := sampleStream()
	for i := range recs {
		recs[i].LSN = 0
	}
	if n, err := c.Append(recs...); n != 7 || err != nil {
		t.Fatalf("Append = %d, %v; want 7, nil", n, err)
	}
	for i, r := range recs {
		if r.LSN != uint64(i+1) {
			t.Fatalf("record %d assigned lsn %d", i, r.LSN)
		}
	}
	if st := c.Stats(); len(seen) != 1 || seen[0] != 0 || st.LastLSN != 7 || st.WAL.Fsyncs != 1 || st.WAL.Appends != 7 || st.Accepted != 7 {
		t.Fatalf("one batch: watermarks at fsync %v, stats %+v", seen, st)
	}

	batch := []wlog.Record{mk(0, 3, 1, "START"), mk(0, 3, 2, "A"), mk(0, 1, 5, "A"), mk(0, 3, 3, "B")}
	n, err := c.Append(batch...)
	if n != 2 || batch[n].WID != 1 || batch[n].LSN != 10 || cond(err) != wlog.CondEndLast {
		t.Fatalf("Append = %d, %v; want 2 and wid 1's record after END refused at lsn 10", n, err)
	}
	if st := c.Stats(); len(seen) != 2 || seen[1] != 7 || st.LastLSN != 9 || st.WAL.Fsyncs != 2 || st.Rejected != 1 {
		t.Fatalf("refused batch: watermarks at fsync %v, stats %+v", seen, st)
	}
	c.Close()
	c2, _, err := Open(nil, Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if c2.LastLSN() != 9 || query(c2, "A").Len() != 1 {
		t.Fatalf("restart recovered lsn %d, %d A records; want 9 and 1", c2.LastLSN(), query(c2, "A").Len())
	}
}

// TestReplayOnStreamedBase: a live log whose base snapshot was streamed from
// a file into a colstore.Builder, as wlq-serve loads it, replays its WAL into
// the same store as one whose base was built from the decoded log.
func TestReplayOnStreamedBase(t *testing.T) {
	l := gen.MustRandomLog(gen.LogParams{Instances: 40, MeanLength: 8, CompleteFraction: 0.5, Seed: 21})
	recs := l.Records()
	cut := len(recs) * 2 / 3
	base, err := wlog.New(recs[:cut])
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	c, _, err := Open(base, Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if n, err := c.Append(recs[cut:]...); err != nil || n != len(recs)-cut {
		t.Fatalf("append: %d, %v", n, err)
	}
	c.Close()

	path := filepath.Join(t.TempDir(), "base.jsonl")
	if err := logio.WriteFile(path, base); err != nil {
		t.Fatal(err)
	}
	var b colstore.Builder
	if err := logio.ReadFileFunc(path, b.Add); err != nil {
		t.Fatal(err)
	}
	streamed, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	var got [2]*colstore.Store
	for i, open := range []func() (*Coordinator, error){
		func() (*Coordinator, error) { c, _, err := OpenStore(streamed, Config{Dir: dir}); return c, err },
		func() (*Coordinator, error) { c, _, err := Open(base, Config{Dir: dir}); return c, err },
	} {
		c, err := open()
		if err != nil {
			t.Fatal(err)
		}
		if st := c.Stats(); st.Replayed != uint64(len(recs)-cut) || st.Deduped != 0 {
			t.Fatalf("replay %d: %+v", i, st)
		}
		got[i] = c.Store()
		c.Close()
	}
	if got[0].TotalRecords() != l.Len() || !slices.Equal(got[0].WIDs(), got[1].WIDs()) {
		t.Fatalf("streamed base replays to %d records, %d wids; built base to %d, %d",
			got[0].TotalRecords(), len(got[0].WIDs()), got[1].TotalRecords(), len(got[1].WIDs()))
	}
	for _, wid := range got[1].WIDs() {
		if !slices.EqualFunc(got[0].Instance(wid), got[1].Instance(wid), wlog.Record.Equal) {
			t.Fatalf("instance %d: streamed base %v, built base %v", wid, got[0].Instance(wid), got[1].Instance(wid))
		}
		if !slices.EqualFunc(got[0].Instance(wid), l.Instance(wid), wlog.Record.Equal) {
			t.Fatalf("instance %d: replayed %v, log %v", wid, got[0].Instance(wid), l.Instance(wid))
		}
	}
}
